package main

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// profiles are the file-based host profiles of one run: the CPU profile
// streams to cpu while the run executes, and the allocation profile is
// written to memPath when the run stops. Either may be absent.
type profiles struct {
	cpu     *os.File
	memPath string
}

// startProfiles starts CPU profiling into cpuPath (empty = off) and
// remembers memPath (empty = off) for stop.
func startProfiles(cpuPath, memPath string) (*profiles, error) {
	p := &profiles{memPath: memPath}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		p.cpu = f
	}
	return p, nil
}

// stop ends CPU profiling and writes the allocation profile, reporting the
// first error. Calling it again is a no-op.
func (p *profiles) stop() error {
	var err error
	if p.cpu != nil {
		pprof.StopCPUProfile()
		err = p.cpu.Close()
		p.cpu = nil
	}
	if p.memPath != "" {
		if merr := writeAllocProfile(p.memPath); err == nil {
			err = merr
		}
		p.memPath = ""
	}
	return err
}

// writeAllocProfile writes the allocation profile (every sampled
// allocation since the process started, plus the live heap after a GC) to
// path, as `go test -memprofile` does.
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	werr := pprof.Lookup("allocs").WriteTo(f, 0)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
