package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Parser for the energy-profile JSON export, the inverse of
// WriteProfileJSON. Only tests call it: the session tests decode a
// scraped /profile?format=json document with it, as the reference a
// streamed profile reconstruction must equal.

// ParseProfileJSON reads a WriteProfileJSON document and rebuilds an
// attribution profile by reverse-mapping the exported phase/codec/wire/
// level/transition names to grid coordinates. Each cell is one exact
// Add into a zero profile, so the parsed cells are bit-identical to the
// exported ones.
func ParseProfileJSON(r io.Reader) (*Profile, error) {
	var doc profileJSONDoc
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("obs: parse profile: %w", err)
	}
	p := NewProfile()
	for i, c := range doc.Cells {
		ph, ok := phaseByName(c.Phase)
		if !ok {
			return nil, fmt.Errorf("obs: parse profile: cell %d: unknown phase %q", i, c.Phase)
		}
		codec, ok := codecByName(c.Codec)
		if !ok {
			return nil, fmt.Errorf("obs: parse profile: cell %d: unknown codec %q", i, c.Codec)
		}
		wire, err := wireByName(c.Wire)
		if err != nil {
			return nil, fmt.Errorf("obs: parse profile: cell %d: %w", i, err)
		}
		level, err := levelByName(c.Level)
		if err != nil {
			return nil, fmt.Errorf("obs: parse profile: cell %d: %w", i, err)
		}
		tc, ok := transByName(c.Transition)
		if !ok {
			return nil, fmt.Errorf("obs: parse profile: cell %d: unknown transition %q", i, c.Transition)
		}
		if cellIndex(ph, codec, wire, level, tc) < 0 {
			return nil, fmt.Errorf("obs: parse profile: cell %d: coordinates out of range (%s/%s/%s/%s/%s)",
				i, c.Phase, c.Codec, c.Wire, c.Level, c.Transition)
		}
		p.Add(ph, codec, wire, level, tc, c.FJ, c.Symbols)
	}
	return p, nil
}

func phaseByName(name string) (Phase, bool) {
	for ph := Phase(0); ph < NumPhases; ph++ {
		if ph.String() == name {
			return ph, true
		}
	}
	return 0, false
}

func codecByName(name string) (int, bool) {
	for c := 0; c < NumProfileCodecs; c++ {
		if ProfileCodecName(c) == name {
			return c, true
		}
	}
	return 0, false
}

func transByName(name string) (TransClass, bool) {
	for tc := TransClass(0); tc < NumTransClasses; tc++ {
		if tc.String() == name {
			return tc, true
		}
	}
	return 0, false
}

func wireByName(name string) (int, error) {
	if name == "agg" {
		return WireAgg, nil
	}
	w, err := strconv.Atoi(name)
	if err != nil || w < 0 || w >= ProfileWires {
		return 0, fmt.Errorf("unknown wire %q", name)
	}
	return w, nil
}

func levelByName(name string) (int, error) {
	if name == "mix" {
		return LevelMix, nil
	}
	rest, ok := strings.CutPrefix(name, "L")
	if !ok {
		return 0, fmt.Errorf("unknown level %q", name)
	}
	l, err := strconv.Atoi(rest)
	if err != nil || l < 0 || l >= ProfileLevels {
		return 0, fmt.Errorf("unknown level %q", name)
	}
	return l, nil
}
