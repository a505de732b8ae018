// Package cpuprof gives the command-line tools their -cpuprofile flag:
// a CPU profile of the whole run, written for go tool pprof. A command
// registers the flag before flag.Parse, calls Start after it, and
// leaves through Exit (or returns from main after a deferred Stop), so
// the profile is flushed and closed on every way out.
package cpuprof

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
)

// file is the running profile's output, nil when none runs. A process
// runs at most one CPU profile (runtime/pprof), so one variable holds it
// for every exit path of the command.
var file *os.File

// Flag registers -cpuprofile on the command line's flag set.
func Flag() *string {
	return flag.String("cpuprofile", "", "write a CPU profile of the run to this file (read it with go tool pprof)")
}

// Start begins profiling into path. An empty path starts nothing.
func Start(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("cpuprofile: %w", err)
	}
	file = f
	return nil
}

// Stop ends the profile Start began, if any, and closes its file. It
// reports a failed close on stderr; a second call does nothing.
func Stop() {
	if file == nil {
		return
	}
	pprof.StopCPUProfile()
	if err := file.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "cpuprofile:", err)
	}
	file = nil
}

// Exit stops the profile and exits with code.
func Exit(code int) {
	Stop()
	os.Exit(code)
}
