// Package profile writes the CPU and allocation profiles the commands
// take with -cpuprofile and -memprofile, for go tool pprof.
package profile

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile into cpuPath and returns the function that
// ends it and writes the allocation profile (every sampled allocation
// since the process started) into memPath. An empty path skips that
// profile.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			return nil, errors.Join(err, cpu.Close())
		}
	}
	return func() (err error) {
		if cpu != nil {
			pprof.StopCPUProfile()
			err = cpu.Close()
		}
		if memPath == "" {
			return err
		}
		f, ferr := os.Create(memPath)
		if ferr != nil {
			return errors.Join(err, ferr)
		}
		runtime.GC() // the profile holds allocations up to the last collection
		return errors.Join(err, pprof.Lookup("allocs").WriteTo(f, 0), f.Close())
	}, nil
}
