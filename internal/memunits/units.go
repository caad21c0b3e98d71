// Package memunits defines the address geometry used throughout the
// SILC-FM reproduction: 64-byte subblocks (the unit of data movement and of
// CPU cache lines) and 2-kilobyte large blocks (the unit of remapping,
// paging and locking), exactly as in the paper (§II).
package memunits

import "fmt"

const (
	// SubblockSize is the small-block / cache-line size in bytes.
	SubblockSize = 64
	// BlockSize is the large-block / page size in bytes.
	BlockSize = 2048
	// SubblocksPerBlock is the number of subblocks in one large block
	// (and the width of a residency bit vector).
	SubblocksPerBlock = BlockSize / SubblockSize // 32

	subblockShift = 6  // log2(SubblockSize)
	blockShift    = 11 // log2(BlockSize)
)

// Addr is a byte address, physical or virtual depending on context.
type Addr = uint64

// BlockID identifies a 2 KB large block: Addr >> 11.
type BlockID = uint64

// SubblockID identifies a 64 B subblock: Addr >> 6.
type SubblockID = uint64

// BlockOf returns the large-block number containing a.
func BlockOf(a Addr) BlockID { return a >> blockShift }

// SubblockOf returns the global subblock number containing a.
func SubblockOf(a Addr) SubblockID { return a >> subblockShift }

// SubblockIndex returns the index (0..31) of a's subblock within its block.
func SubblockIndex(a Addr) uint { return uint(a>>subblockShift) & (SubblocksPerBlock - 1) }

// BlockBase returns the first byte address of block b.
func BlockBase(b BlockID) Addr { return b << blockShift }

// SubblockBase returns the first byte address of subblock s.
func SubblockBase(s SubblockID) Addr { return s << subblockShift }

// SubblockAddr returns the byte address of subblock idx within block b.
func SubblockAddr(b BlockID, idx uint) Addr {
	return b<<blockShift | Addr(idx)<<subblockShift
}

// AlignBlock rounds a down to its block base.
func AlignBlock(a Addr) Addr { return a &^ (BlockSize - 1) }

// AlignSubblock rounds a down to its subblock base.
func AlignSubblock(a Addr) Addr { return a &^ (SubblockSize - 1) }

// BlocksIn returns how many large blocks fit in size bytes. size must be a
// multiple of BlockSize.
func BlocksIn(size uint64) uint64 { return size >> blockShift }

// SubblocksIn returns how many subblocks fit in size bytes.
func SubblocksIn(size uint64) uint64 { return size >> subblockShift }

// BitVector records per-subblock residency within one large block: bit i set
// means subblock i of the block has been swapped in from the other memory
// level (paper §III-A).
type BitVector uint32

// Set marks subblock idx.
func (v *BitVector) Set(idx uint) { *v |= 1 << (idx & 31) }

// Clear unmarks subblock idx.
func (v *BitVector) Clear(idx uint) { *v &^= 1 << (idx & 31) }

// Test reports whether subblock idx is marked.
func (v BitVector) Test(idx uint) bool { return v&(1<<(idx&31)) != 0 }

// Count returns the number of marked subblocks.
func (v BitVector) Count() int {
	n := 0
	for x := uint32(v); x != 0; x &= x - 1 {
		n++
	}
	return n
}

// Full is the vector with all 32 subblocks marked.
const Full BitVector = 1<<SubblocksPerBlock - 1

func (v BitVector) String() string { return fmt.Sprintf("%032b", uint32(v)) }
