package obs

// Merge adds every cell of src into p. The fleet runners publish each
// channel's tally into the shared profile in (app, channel) order
// instead; merging one dense profile per shard in that order is the
// reference those publishes are held to bit for bit. Nil receivers and
// sources are inert, like every profile operation.
func (p *Profile) Merge(src *Profile) {
	if p == nil || src == nil {
		return
	}
	for i := range src.energy {
		if fj := src.energy[i].Value(); fj > 0 {
			p.energy[i].Add(fj)
		}
		if n := src.count[i].Load(); n > 0 {
			p.count[i].Add(n)
		}
	}
}
