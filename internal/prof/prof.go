// Package prof is the profile flags of the abft-* commands: one call that a
// command makes between parsing its flags and doing its work.
package prof

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile into cpuPath and returns stop, which ends it and
// then writes a heap profile to memPath. An empty path skips that profile.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close() // nothing was written
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("-cpuprofile: %w", err)
			}
		}
		if memPath == "" {
			return nil
		}
		runtime.GC() // the heap profile is as of the last collection
		var buf bytes.Buffer
		if err := pprof.WriteHeapProfile(&buf); err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		return os.WriteFile(memPath, buf.Bytes(), 0o644)
	}, nil
}
