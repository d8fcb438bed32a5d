//go:build race

package sweep

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// entries at random (fmt keeps its printers in one), so an exact allocation
// count does not repeat under it.
const raceEnabled = true
