package asm

import "testing"

// FuzzAssemble drives the assembler's trust boundary: arbitrary source
// text into Assemble, which must never panic. Every program it accepts
// must survive Canonical: reassembling the canonical form gives the same
// base and the same instructions.
//
// Run it with: go test -run '^$' -fuzz FuzzAssemble ./internal/asm
func FuzzAssemble(f *testing.F) {
	for _, c := range errorCases {
		f.Add(c.src)
	}
	f.Add(roundTripSrc)
	for _, src := range canonicalCases {
		f.Add(src)
	}

	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble(src)
		if err != nil {
			return
		}
		checkRoundTrip(t, p)
	})
}
