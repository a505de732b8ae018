// Package obs is the simulator's observability layer: the energy
// profiler and the cycle-level event tracer.
//
//   - Profile attributes every femtojoule of bus energy to a (phase ×
//     codec × wire × level × transition class) cell. Bus channels tally
//     their samples privately, in a Profile of their own (NewTally), and
//     their runners publish each accepted run's tally into the shared
//     Profile once; the profile exports as JSON or folded stacks
//     (flamegraph.pl, speedscope).
//   - Tracer keeps the most recent cycle-level events (DRAM commands,
//     bursts by codec, gaps, seams, queue depths) in a ring buffer and
//     renders them as Chrome trace-event JSON for Perfetto.
//
// Design rules:
//
//   - Hot-path friendly. Every method is safe on a nil receiver and does
//     nothing, so modules instrument unconditionally and pay only a
//     predictable nil check when observability is off. Tally adds are
//     plain adds with no locks and no allocation; a publish takes the
//     shared profile's lock once.
//   - One source of truth. The modules' Stats structs are the accounting
//     of record; the profile's published cells reconcile with the summed
//     bus.Stats of the runs that published them (test-enforced).
package obs
