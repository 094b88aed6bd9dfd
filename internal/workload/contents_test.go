package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"cmpsim/internal/cache"
	"cmpsim/internal/codec"
)

// TestDataModelContentsPinned pins the synthesized block contents and
// their priced sizes: one SHA-256 over FillLine and SizeOf for every
// profile × codec × seeds {1, 2} × versions {0, 1, 2} × 256 addresses.
// The value synthesizer, the calibration and every codec's size
// function feed it, so a refactor of any of them that changes a single
// word or segment count moves the digest.
func TestDataModelContentsPinned(t *testing.T) {
	const want = "937629d656f3cd7123b2b53de90c4e7395746458a81613b30e2b9eef151dcf1c"
	h := sha256.New()
	var line [cache.LineBytes]byte
	for _, name := range Names() {
		for _, c := range codec.All() {
			for _, seed := range []int64{1, 2} {
				d := NewDataModelCodec(MustByName(name), seed, c)
				for ver := 0; ver < 3; ver++ {
					for i := 0; i < 256; i++ {
						a := cache.BlockAddr(0x0200_0000 + i*0x1001)
						d.FillLine(a, line[:])
						h.Write(line[:])
						h.Write([]byte{d.SizeOf(a)})
						d.Dirty(a)
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("synthesized contents digest %s, want %s", got, want)
	}
}
