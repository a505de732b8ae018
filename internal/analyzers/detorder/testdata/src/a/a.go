// Package a exercises the detorder analyzer.
package a

import (
	"fmt"
	"io"
	"sort"
)

type sink struct{}

func (sink) Merge(k string, v int) {}
func (sink) Observe(v float64)     {}

func printer(m map[string]int, w io.Writer) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want `map iteration order feeds fmt\.Fprintf`
	}
}

func merger(m map[string]int, s sink) {
	for k, v := range m {
		s.Merge(k, v) // want `map iteration order feeds sink\.Merge`
	}
}

func sender(m map[string]int, ch chan int) {
	for _, v := range m {
		ch <- v // want `map iteration order feeds a channel send`
	}
}

func floats(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want `map iteration order feeds floating-point accumulation`
	}
	return sum
}

func unsortedAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `map iteration order feeds append to keys with no later sort of it in unsortedAppend`
	}
	return keys
}

// sortedAppend is the sanctioned collect-then-sort idiom: clean.
func sortedAppend(m map[string]int, w io.Writer) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s=%d\n", k, m[k])
	}
}

type doc struct{ events []string }

func fieldAppend(m map[string]int, d *doc) {
	for k := range m {
		d.events = append(d.events, k) // want `map iteration order feeds append to events with no later sort of it in fieldAppend`
	}
}

// sortedFieldAppend sorts the field it collected into: clean.
func sortedFieldAppend(m map[string]int, d *doc) {
	for k := range m {
		d.events = append(d.events, k)
	}
	sort.Strings(d.events)
}

func indexAppend(m map[string]int, rows [][]string) {
	for k := range m {
		rows[0] = append(rows[0], k) // want `map iteration order feeds append to rows with no later sort of it in indexAppend`
	}
}

// sortedIndexAppend sorts the element it collected into: clean.
func sortedIndexAppend(m map[string]int, rows [][]string) {
	for k := range m {
		rows[0] = append(rows[0], k)
	}
	sort.Strings(rows[0])
}

// pure shapes stay legal: Sprintf is pure, writing into another map is
// commutative, and integer accumulation commutes.
func pure(m map[string]int) (map[string]string, int) {
	out := make(map[string]string, len(m))
	n := 0
	for k, v := range m {
		out[k] = fmt.Sprintf("%d", v)
		n += v
	}
	return out, n
}

func exemptLine(m map[string]int, s sink) {
	//smores:anyorder sink.Merge is commutative over keys here
	for k, v := range m {
		s.Merge(k, v)
	}
}

// exemptDoc covers every range in the function.
//
//smores:anyorder diagnostics-only dump, consumers tolerate any order
func exemptDoc(m map[string]int, w io.Writer) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}

//smores:anyorder
func bareDoc(m map[string]int, s sink) { // want `bare //smores:anyorder: state why`
	for k, v := range m {
		s.Merge(k, v)
	}
}

func bareLine(m map[string]int, s sink) {
	//smores:anyorder
	for k, v := range m { // want `bare //smores:anyorder: state why`
		s.Merge(k, v)
	}
}
