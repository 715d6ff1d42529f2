package cache

import "bcache/internal/addr"

// Fault-injection state accessors: SetAssoc exposes its raw metadata
// arrays as flat, stably-numbered bit spaces so internal/fault can flip
// deterministic sites. The numbering is part of the fault log contract —
// changing it changes campaign byte-identity, so keep it append-only.
//
// Site numbering:
//
//	FaultTag:   bit = frame*tagBits + b  (b < tagBits)
//	FaultValid: bit = set*Ways + way
//	FaultDirty: bit = set*Ways + way
//	FaultPD:    absent (no programmable decoder)

// tagBits returns the stored tag width in bits.
func (c *SetAssoc) tagBits() uint64 {
	return uint64(addr.Bits) - uint64(c.offBits) - uint64(c.idxBits)
}

// StateBits reports the number of injectable state bits in domain d.
func (c *SetAssoc) StateBits(d FaultDomain) uint64 {
	switch d {
	case FaultTag:
		return uint64(c.geom.Frames) * c.tagBits()
	case FaultValid, FaultDirty:
		return uint64(c.geom.Frames)
	}
	return 0
}

// setWay decomposes a Valid/Dirty site number into mask coordinates.
func (c *SetAssoc) setWay(bit uint64) (word int, mask uint64) {
	set := int(bit) / c.geom.Ways
	way := int(bit) % c.geom.Ways
	return set*c.maskWords + way>>6, 1 << (uint(way) & 63)
}

// FlipStateBit flips bit `bit` of domain d (a silent soft error).
func (c *SetAssoc) FlipStateBit(d FaultDomain, bit uint64) {
	switch d {
	case FaultTag:
		tb := c.tagBits()
		c.tags[bit/tb] ^= 1 << (bit % tb)
	case FaultValid:
		w, m := c.setWay(bit)
		c.valid[w] ^= m
	case FaultDirty:
		w, m := c.setWay(bit)
		c.dirty[w] ^= m
	}
}

// InvalidateSite conservatively drops the line owning bit `bit` of
// domain d: the recovery action of a detected-but-uncorrectable error
// (the functional model does not track data, so "refetch" is simply a
// future miss).
func (c *SetAssoc) InvalidateSite(d FaultDomain, bit uint64) {
	var w int
	var m uint64
	switch d {
	case FaultTag:
		fi := bit / c.tagBits()
		w, m = c.setWay(fi)
	case FaultValid, FaultDirty:
		w, m = c.setWay(bit)
	default:
		return
	}
	c.valid[w] &^= m
	c.dirty[w] &^= m
}
