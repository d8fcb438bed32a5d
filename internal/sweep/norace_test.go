//go:build !race

package sweep

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
