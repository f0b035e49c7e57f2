package store

import (
	"runtime"
	"strings"
	"testing"
)

// TestResultGzipBombFailsAtTheCap: a result payload that inflates past
// maxResultJSON, one byte past it or 64 times it, is refused having
// allocated a few times the cap, not what the bomb inflates to.
func TestResultGzipBombFailsAtTheCap(t *testing.T) {
	for _, n := range []int{maxResultJSON + 1, 64 * maxResultJSON} {
		bomb := gzipBomb(t, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeResultPayload(bomb)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "inflates past 1048576 bytes") {
			t.Fatalf("%d-byte bomb: err = %v, want the cap error", n, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 8*maxResultJSON {
			t.Errorf("%d-byte bomb: decode allocated %d bytes, cap %d", n, got, maxResultJSON)
		}
	}
}
