package main

import "encoding/binary"

// mix64 is the splitmix64 finaliser: a cheap bijective hash used to derive
// block keys from the run seed.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// blockKey names one version of one block of one file. Every part changes
// the bytes, so a block written to the wrong place, or an older version
// served after a newer one was acknowledged, fails verification.
func blockKey(seed uint64, parts ...uint64) uint64 {
	k := mix64(seed)
	for _, p := range parts {
		k = mix64(k ^ p)
	}
	return k
}

// pattern generates block contents: a seed-derived random base XORed with
// the block key. Filling and checking cost one load and one store per word,
// so generating checkpoint data does not crowd the forwarding path out of
// the two CPUs the benchmark runs on.
type pattern struct{ base []uint64 }

func newPattern(seed uint64, maxBytes int) *pattern {
	p := &pattern{base: make([]uint64, maxBytes/8)}
	for i := range p.base {
		p.base[i] = mix64(seed ^ uint64(i)*0xD6E8FEB86659FD93)
	}
	return p
}

// fill writes the pattern for key into b. len(b) must be a multiple of 8
// and at most maxBytes.
func (p *pattern) fill(b []byte, key uint64) {
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], p.base[i/8]^key)
	}
}

// matches reports whether b holds exactly the pattern for key.
func (p *pattern) matches(b []byte, key uint64) bool {
	for i := 0; i+8 <= len(b); i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != p.base[i/8]^key {
			return false
		}
	}
	return true
}
