package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"smores/internal/floats"
)

// Profile export formats:
//
//	WriteProfileJSON        the snapshot as a structured document
//	WriteProfileFolded      folded-stack text (flamegraph.pl / speedscope)

// profileJSONCell mirrors ProfileCell with string keys for JSON export.
type profileJSONCell struct {
	Phase      string  `json:"phase"`
	Codec      string  `json:"codec"`
	Wire       string  `json:"wire"`
	Level      string  `json:"level"`
	Transition string  `json:"transition"`
	FJ         float64 `json:"fj"`
	Symbols    int64   `json:"symbols"`
}

type profileJSONDoc struct {
	TotalFJ      float64            `json:"total_fj"`
	TotalSymbols int64              `json:"total_symbols"`
	PhaseFJ      map[string]float64 `json:"phase_fj"`
	CodecFJ      map[string]float64 `json:"codec_fj"`
	Cells        []profileJSONCell  `json:"cells"`
}

// WriteProfileJSON renders the snapshot as an indented JSON document.
func WriteProfileJSON(w io.Writer, s ProfileSnapshot) error {
	doc := profileJSONDoc{
		TotalFJ:      s.TotalFJ,
		TotalSymbols: s.Symbols,
		PhaseFJ:      make(map[string]float64, NumPhases),
		CodecFJ:      make(map[string]float64, NumProfileCodecs),
		Cells:        make([]profileJSONCell, 0, len(s.Cells)),
	}
	for ph := Phase(0); ph < NumPhases; ph++ {
		if !floats.Eq(s.PhaseFJ[ph], 0) {
			doc.PhaseFJ[ph.String()] = s.PhaseFJ[ph]
		}
	}
	for c := 0; c < NumProfileCodecs; c++ {
		if !floats.Eq(s.CodecFJ[c], 0) {
			doc.CodecFJ[ProfileCodecName(c)] = s.CodecFJ[c]
		}
	}
	for _, c := range s.Cells {
		doc.Cells = append(doc.Cells, profileJSONCell{
			Phase: c.Phase.String(), Codec: ProfileCodecName(c.Codec),
			Wire: c.WireName(), Level: c.LevelName(),
			Transition: c.Trans.String(), FJ: c.FJ, Symbols: c.Count,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteProfileFolded renders the snapshot in the folded-stack format
// consumed by flamegraph.pl and speedscope: one line per cell,
// "phase;codec;wire N;level;transition <fJ>", values rounded to whole
// femtojoules (cells that round to zero are dropped).
func WriteProfileFolded(w io.Writer, s ProfileSnapshot) error {
	for _, c := range s.Cells {
		v := int64(c.FJ + 0.5)
		if v == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "%s;%s;wire %s;%s;%s %d\n",
			c.Phase, ProfileCodecName(c.Codec), c.WireName(),
			c.LevelName(), c.Trans, v); err != nil {
			return err
		}
	}
	return nil
}
