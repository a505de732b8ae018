package obs

// Merge adds every cell of src into p. The fleet rolls per-shard and
// per-app profiles up through their snapshot cells instead (report's
// addCells); Merge is the dense reference those cell roll-ups are held
// to bit for bit. Nil receivers and sources are inert, like every
// profile operation.
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
