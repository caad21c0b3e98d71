package memunits

import (
	"testing"
	"testing/quick"
)

func TestGeometryConstants(t *testing.T) {
	if SubblocksPerBlock != 32 {
		t.Fatalf("SubblocksPerBlock = %d, want 32 (paper: 32 bits per block)", SubblocksPerBlock)
	}
	if BlockSize != 2048 || SubblockSize != 64 {
		t.Fatalf("sizes %d/%d, want 2048/64", BlockSize, SubblockSize)
	}
}

func TestAddressArithmetic(t *testing.T) {
	a := Addr(5*BlockSize + 7*SubblockSize + 13)
	if BlockOf(a) != 5 {
		t.Errorf("BlockOf = %d, want 5", BlockOf(a))
	}
	if SubblockIndex(a) != 7 {
		t.Errorf("SubblockIndex = %d, want 7", SubblockIndex(a))
	}
	if SubblockOf(a) != 5*32+7 {
		t.Errorf("SubblockOf = %d, want %d", SubblockOf(a), 5*32+7)
	}
	if AlignBlock(a) != 5*BlockSize {
		t.Errorf("AlignBlock = %d", AlignBlock(a))
	}
	if AlignSubblock(a) != 5*BlockSize+7*64 {
		t.Errorf("AlignSubblock = %d", AlignSubblock(a))
	}
	if SubblockAddr(5, 7) != 5*BlockSize+7*64 {
		t.Errorf("SubblockAddr = %d", SubblockAddr(5, 7))
	}
	if BlockBase(5) != 5*BlockSize {
		t.Errorf("BlockBase = %d", BlockBase(5))
	}
	if SubblockBase(3) != 3*64 {
		t.Errorf("SubblockBase = %d", SubblockBase(3))
	}
}

func TestCapacityHelpers(t *testing.T) {
	if BlocksIn(1<<20) != 512 {
		t.Errorf("BlocksIn(1MiB) = %d, want 512", BlocksIn(1<<20))
	}
	if SubblocksIn(1<<20) != 16384 {
		t.Errorf("SubblocksIn(1MiB) = %d, want 16384", SubblocksIn(1<<20))
	}
}

// Property: block/subblock decomposition round-trips for any address.
func TestDecomposeRoundTrip(t *testing.T) {
	f := func(a Addr) bool {
		b := BlockOf(a)
		idx := SubblockIndex(a)
		off := uint(a) & (SubblockSize - 1)
		return SubblockAddr(b, idx)+Addr(off) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitVectorBasics(t *testing.T) {
	var v BitVector
	if v.Count() != 0 {
		t.Fatal("zero vector not empty")
	}
	v.Set(0)
	v.Set(31)
	v.Set(7)
	if !v.Test(0) || !v.Test(31) || !v.Test(7) || v.Test(6) {
		t.Fatalf("Test wrong: %s", v)
	}
	if v.Count() != 3 {
		t.Fatalf("Count = %d, want 3", v.Count())
	}
	v.Clear(7)
	if v.Test(7) || v.Count() != 2 {
		t.Fatalf("Clear failed: %s", v)
	}
	if !v.Test(0) || !v.Test(31) {
		t.Fatalf("Clear(7) lost a neighbour: %s", v)
	}
}

func TestBitVectorFull(t *testing.T) {
	if Full.Count() != SubblocksPerBlock {
		t.Fatalf("Full.Count = %d", Full.Count())
	}
	for i := uint(0); i < SubblocksPerBlock; i++ {
		if !Full.Test(i) {
			t.Fatalf("Full missing bit %d", i)
		}
	}
}

// Property: Set then Test is true; Clear then Test is false; Count matches a
// reference popcount.
func TestBitVectorProperties(t *testing.T) {
	f := func(bits uint32, idx uint8) bool {
		v := BitVector(bits)
		i := uint(idx) % 32
		v.Set(i)
		if !v.Test(i) {
			return false
		}
		v.Clear(i)
		if v.Test(i) {
			return false
		}
		ref := 0
		for j := uint(0); j < 32; j++ {
			if v.Test(j) {
				ref++
			}
		}
		return v.Count() == ref
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
