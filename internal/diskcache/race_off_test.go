//go:build !race

package diskcache

// raceEnabled reports whether this test binary was built with -race,
// under which sync.Pool drops a random quarter of the items put back.
const raceEnabled = false
