package colf

import (
	"fmt"
	"strings"
	"time"
)

// maxZoneRegions caps the per-region aggregate list a zone carries.
// Real blocks cycle through a campaign's region set (a few dozen); a
// block whose dictionary exceeds the cap drops the list rather than
// bloating every footer, and consumers fall back to row decode.
const maxZoneRegions = 64

// RegionZone is one region's pre-aggregate within a block: where its
// rows start, how many there are, and the delivered-RTT fold over them.
// Entries appear in dictionary (first-appearance) order; a region's
// rows need not be contiguous — FirstRow is the first occurrence.
type RegionZone struct {
	Region    string
	FirstRow  int
	Rows      int
	Delivered int
	// RTTSum is the sum of RTT over the region's delivered rows, folded
	// in row order (so it is bit-reproducible from a row scan).
	RTTSum float64
}

// Zone is one block's per-column summary: row count and min/max per
// column. Readers use it two ways — integrity (the decoded block must
// reproduce it) and skipping (a predicate that excludes the zone's
// ranges excludes every row of the block without decoding it).
type Zone struct {
	// Rows is the block's row count.
	Rows int
	// MinProbe/MaxProbe bound the probe ID column.
	MinProbe, MaxProbe int
	// MinTime/MaxTime bound the timestamp column, Unix nanoseconds.
	MinTime, MaxTime int64
	// Delivered counts rows with Lost == false. MinRTT/MaxRTT bound the
	// RTT column over delivered rows only and are zero when none were.
	Delivered      int
	MinRTT, MaxRTT float64
	// MinRegion/MaxRegion bound the region column lexicographically.
	MinRegion, MaxRegion string

	// RTTSum is the row-order sum of RTT over delivered rows. Regions
	// holds the per-region breakdown, and is nil when the block's
	// dictionary exceeded maxZoneRegions.
	RTTSum  float64
	Regions []RegionZone
}

// observe folds one row into the zone.
func (z *Zone) observe(r Row) {
	if z.Rows == 0 {
		z.MinProbe, z.MaxProbe = r.Probe, r.Probe
		z.MinTime, z.MaxTime = r.TimeNano, r.TimeNano
		z.MinRegion, z.MaxRegion = r.Region, r.Region
	} else {
		if r.Probe < z.MinProbe {
			z.MinProbe = r.Probe
		}
		if r.Probe > z.MaxProbe {
			z.MaxProbe = r.Probe
		}
		if r.TimeNano < z.MinTime {
			z.MinTime = r.TimeNano
		}
		if r.TimeNano > z.MaxTime {
			z.MaxTime = r.TimeNano
		}
		if r.Region < z.MinRegion {
			z.MinRegion = r.Region
		}
		if r.Region > z.MaxRegion {
			z.MaxRegion = r.Region
		}
	}
	z.Rows++
	if !r.Lost {
		if z.Delivered == 0 {
			z.MinRTT, z.MaxRTT = r.RTT, r.RTT
		} else {
			if r.RTT < z.MinRTT {
				z.MinRTT = r.RTT
			}
			if r.RTT > z.MaxRTT {
				z.MaxRTT = r.RTT
			}
		}
		z.Delivered++
		z.RTTSum += r.RTT
	}
}

// Zone extension flags: the aggregate extension follows MaxRegion in
// every zone, and the flags say which of its parts are present.
const (
	zoneFlagAgg     = 1 << 0 // RTTSum present (when Delivered > 0)
	zoneFlagRegions = 1 << 1 // per-region aggregate list present
)

// appendZone encodes z. The same encoding serves block footers and the
// file-level index.
func appendZone(b []byte, z Zone) []byte {
	b = appendUvarint(b, uint64(z.Rows))
	b = appendVarint(b, int64(z.MinProbe))
	b = appendVarint(b, int64(z.MaxProbe))
	b = appendVarint(b, z.MinTime)
	b = appendVarint(b, z.MaxTime)
	b = appendUvarint(b, uint64(z.Delivered))
	if z.Delivered > 0 {
		b = appendFloatBits(b, z.MinRTT)
		b = appendFloatBits(b, z.MaxRTT)
	}
	b = appendUvarint(b, uint64(len(z.MinRegion)))
	b = append(b, z.MinRegion...)
	b = appendUvarint(b, uint64(len(z.MaxRegion)))
	b = append(b, z.MaxRegion...)
	flags := uint64(zoneFlagAgg)
	if len(z.Regions) > 0 {
		flags |= zoneFlagRegions
	}
	b = appendUvarint(b, flags)
	if z.Delivered > 0 {
		b = appendFloatBits(b, z.RTTSum)
	}
	if len(z.Regions) > 0 {
		b = appendUvarint(b, uint64(len(z.Regions)))
		for _, rz := range z.Regions {
			b = appendUvarint(b, uint64(len(rz.Region)))
			b = append(b, rz.Region...)
			b = appendUvarint(b, uint64(rz.FirstRow))
			b = appendUvarint(b, uint64(rz.Rows))
			b = appendUvarint(b, uint64(rz.Delivered))
			if rz.Delivered > 0 {
				b = appendFloatBits(b, rz.RTTSum)
			}
		}
	}
	return b
}

// decodeZone parses a zone that owns the whole cursor: the column
// bounds, the aggregate extension, and nothing after. Block footers and
// index entries are exactly bounded, so stray bytes are corruption.
func decodeZone(c *byteCursor) (Zone, error) {
	var z Zone
	rows, err := c.uvarint()
	if err != nil {
		return z, err
	}
	if rows > uint64(maxBlockBytes) {
		return z, fmt.Errorf("colf: implausible zone row count %d", rows)
	}
	z.Rows = int(rows)
	minP, err := c.varint()
	if err != nil {
		return z, err
	}
	maxP, err := c.varint()
	if err != nil {
		return z, err
	}
	z.MinProbe, z.MaxProbe = int(minP), int(maxP)
	if z.MinTime, err = c.varint(); err != nil {
		return z, err
	}
	if z.MaxTime, err = c.varint(); err != nil {
		return z, err
	}
	delivered, err := c.uvarint()
	if err != nil {
		return z, err
	}
	if delivered > rows {
		return z, fmt.Errorf("colf: zone delivered %d exceeds rows %d", delivered, rows)
	}
	z.Delivered = int(delivered)
	if z.Delivered > 0 {
		if z.MinRTT, err = c.floatBits(); err != nil {
			return z, err
		}
		if z.MaxRTT, err = c.floatBits(); err != nil {
			return z, err
		}
	}
	n, err := c.uvarint()
	if err != nil {
		return z, err
	}
	raw, err := c.bytes(int(n))
	if err != nil {
		return z, err
	}
	z.MinRegion = string(raw)
	if n, err = c.uvarint(); err != nil {
		return z, err
	}
	if raw, err = c.bytes(int(n)); err != nil {
		return z, err
	}
	z.MaxRegion = string(raw)

	flags, err := c.uvarint()
	if err != nil {
		return z, err
	}
	if flags&zoneFlagAgg == 0 || flags&^uint64(zoneFlagAgg|zoneFlagRegions) != 0 {
		return z, fmt.Errorf("colf: unknown zone extension flags %#x", flags)
	}
	if z.Delivered > 0 {
		if z.RTTSum, err = c.floatBits(); err != nil {
			return z, err
		}
	}
	if flags&zoneFlagRegions != 0 {
		if z.Regions, err = decodeRegionZones(c, z); err != nil {
			return z, err
		}
	}
	if c.remaining() != 0 {
		return z, fmt.Errorf("colf: %d stray bytes after zone", c.remaining())
	}
	return z, nil
}

// decodeRegionZones parses the per-region aggregate list of zone z and
// checks that it tiles the zone's rows and delivered rows.
func decodeRegionZones(c *byteCursor, z Zone) ([]RegionZone, error) {
	count, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if count == 0 || count > maxZoneRegions || count > uint64(z.Rows) {
		return nil, fmt.Errorf("colf: implausible zone region count %d for %d rows", count, z.Rows)
	}
	regions := make([]RegionZone, 0, count)
	var sumRows, sumDelivered int
	for i := uint64(0); i < count; i++ {
		var rz RegionZone
		n, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		raw, err := c.bytes(int(n))
		if err != nil {
			return nil, err
		}
		rz.Region = string(raw)
		first, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		rows, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		delivered, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		if first >= uint64(z.Rows) || rows > uint64(z.Rows) || delivered > rows {
			return nil, fmt.Errorf("colf: implausible zone region entry %d (first %d, rows %d, delivered %d)",
				i, first, rows, delivered)
		}
		rz.FirstRow, rz.Rows, rz.Delivered = int(first), int(rows), int(delivered)
		if rz.Delivered > 0 {
			if rz.RTTSum, err = c.floatBits(); err != nil {
				return nil, err
			}
		}
		sumRows += rz.Rows
		sumDelivered += rz.Delivered
		regions = append(regions, rz)
	}
	if sumRows != z.Rows || sumDelivered != z.Delivered {
		return nil, fmt.Errorf("colf: zone region aggregates cover %d rows/%d delivered, zone has %d/%d",
			sumRows, sumDelivered, z.Rows, z.Delivered)
	}
	return regions, nil
}

// Predicate is a conjunction of per-column range filters. MatchZone is
// the block-skipping side: it answers "may this block contain a
// matching row?" and errs toward true, so skipping is always safe.
// Row-level filtering stays the consumer's job — a scan pass must
// still test every decoded row (MatchRow), because kept blocks carry
// non-matching rows too. Zero-valued fields leave their column
// unconstrained.
type Predicate struct {
	// Since/Until restrict timestamps to the half-open window
	// [Since, Until). Zero times leave the corresponding side open.
	Since, Until time.Time
	// MinProbe/MaxProbe restrict probe IDs to an inclusive range; zero
	// leaves the corresponding side open (probe IDs are positive).
	MinProbe, MaxProbe int
	// RegionPrefix restricts the region address to one prefix, e.g. one
	// provider's "Amazon/" namespace.
	RegionPrefix string
}

// Key returns a canonical encoding of the predicate: two predicates
// select the same rows if and only if their keys are equal. Consumers
// use it as a cache-key component for windowed reads; the empty
// predicate's key is "".
func (p *Predicate) Key() string {
	if p.Empty() {
		return ""
	}
	var b strings.Builder
	if !p.Since.IsZero() {
		fmt.Fprintf(&b, "since=%d;", p.Since.UnixNano())
	}
	if !p.Until.IsZero() {
		fmt.Fprintf(&b, "until=%d;", p.Until.UnixNano())
	}
	if p.MinProbe != 0 {
		fmt.Fprintf(&b, "minprobe=%d;", p.MinProbe)
	}
	if p.MaxProbe != 0 {
		fmt.Fprintf(&b, "maxprobe=%d;", p.MaxProbe)
	}
	if p.RegionPrefix != "" {
		fmt.Fprintf(&b, "region=%q;", p.RegionPrefix)
	}
	return b.String()
}

// Empty reports whether the predicate constrains nothing.
func (p *Predicate) Empty() bool {
	return p == nil || (p.Since.IsZero() && p.Until.IsZero() &&
		p.MinProbe == 0 && p.MaxProbe == 0 && p.RegionPrefix == "")
}

// MatchZone reports whether a block with zone z may contain a matching
// row. A false return proves no row matches.
func (p *Predicate) MatchZone(z Zone) bool {
	if p == nil {
		return true
	}
	if !p.Since.IsZero() && z.MaxTime < p.Since.UnixNano() {
		return false
	}
	if !p.Until.IsZero() && z.MinTime >= p.Until.UnixNano() {
		return false
	}
	if p.MinProbe != 0 && z.MaxProbe < p.MinProbe {
		return false
	}
	if p.MaxProbe != 0 && z.MinProbe > p.MaxProbe {
		return false
	}
	if p.RegionPrefix != "" {
		// A region with the prefix exists in [MinRegion, MaxRegion] only
		// if the range reaches the prefix: not entirely below it and not
		// entirely past its last possible expansion.
		if z.MaxRegion < p.RegionPrefix {
			return false
		}
		if hi, bounded := prefixSuccessor(p.RegionPrefix); bounded && z.MinRegion >= hi {
			return false
		}
	}
	return true
}

// CoversZone is MatchZone's dual: it reports whether EVERY row of a
// block with zone z provably matches the predicate. A true return lets
// a scanner skip per-row filtering for the whole block (and resolve
// aggregate-only passes from the zone alone); false proves nothing —
// the block may still match fully, partially, or not at all. It errs
// toward false, so acting on it is always safe.
func (p *Predicate) CoversZone(z Zone) bool {
	if p.Empty() {
		return true
	}
	if !p.Since.IsZero() && z.MinTime < p.Since.UnixNano() {
		return false
	}
	if !p.Until.IsZero() && z.MaxTime >= p.Until.UnixNano() {
		return false
	}
	if p.MinProbe != 0 && z.MinProbe < p.MinProbe {
		return false
	}
	if p.MaxProbe != 0 && z.MaxProbe > p.MaxProbe {
		return false
	}
	if p.RegionPrefix != "" {
		// If both lexicographic extremes carry the prefix, every region in
		// [MinRegion, MaxRegion] does: a string in the range that lacked it
		// would differ from the prefix at some byte and thereby fall below
		// MinRegion or above MaxRegion.
		if !strings.HasPrefix(z.MinRegion, p.RegionPrefix) || !strings.HasPrefix(z.MaxRegion, p.RegionPrefix) {
			return false
		}
	}
	return true
}

// MatchRow is the row-level mirror of MatchZone: exact, not
// conservative.
func (p *Predicate) MatchRow(probe int, timeNano int64, region string) bool {
	if p == nil {
		return true
	}
	if !p.Since.IsZero() && timeNano < p.Since.UnixNano() {
		return false
	}
	if !p.Until.IsZero() && timeNano >= p.Until.UnixNano() {
		return false
	}
	if p.MinProbe != 0 && probe < p.MinProbe {
		return false
	}
	if p.MaxProbe != 0 && probe > p.MaxProbe {
		return false
	}
	if p.RegionPrefix != "" && (len(region) < len(p.RegionPrefix) || region[:len(p.RegionPrefix)] != p.RegionPrefix) {
		return false
	}
	return true
}

// prefixSuccessor returns the smallest string greater than every
// string with the given prefix, and whether such a bound exists (it
// does not when the prefix is all 0xFF bytes).
func prefixSuccessor(prefix string) (string, bool) {
	b := []byte(prefix)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] != 0xFF {
			b[i]++
			return string(b[:i+1]), true
		}
	}
	return "", false
}
