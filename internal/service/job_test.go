package service

import (
	"bytes"
	"testing"
)

// fillBlockBytewise is the byte-at-a-time splitmix64 stream fillBlock
// must reproduce exactly: clients and older servers digest these bytes.
func fillBlockBytewise(seed uint64, src, dst int, b []byte) {
	x := seed ^ 0x9e3779b97f4a7c15*uint64(src+1) ^ 0xbf58476d1ce4e5b9*uint64(dst+1)
	var h uint64
	for i := range b {
		if i%8 == 0 {
			x += 0x9e3779b97f4a7c15
			h = x
			h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
			h = (h ^ (h >> 27)) * 0x94d049bb133111eb
			h ^= h >> 31
		}
		b[i] = byte(h >> (8 * (i % 8)))
	}
}

func TestFillBlockMatchesBytewise(t *testing.T) {
	lengths := []int{1000}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	keys := []struct {
		seed     uint64
		src, dst int
	}{{0, 0, 0}, {1, 0, 1}, {42, 3, 7}, {^uint64(0), 31, 2}, {0x9e3779b97f4a7c15, 1023, 1023}}
	for _, k := range keys {
		for _, n := range lengths {
			got, want := make([]byte, n), make([]byte, n)
			fillBlock(k.seed, k.src, k.dst, got)
			fillBlockBytewise(k.seed, k.src, k.dst, want)
			if !bytes.Equal(got, want) {
				t.Errorf("seed %d src %d dst %d len %d: word fill %x, bytewise %x", k.seed, k.src, k.dst, n, got, want)
			}
		}
	}
}
