package colf

import (
	"fmt"
	"time"
)

// maxZoneRegions caps the per-region aggregate list a zone of a store
// written before this version may carry. Zones are no longer written
// with the list; the decoder reads past it.
const maxZoneRegions = 64

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

	// RTTSum is the row-order sum of RTT over delivered rows.
	RTTSum float64
}

// observe folds one row into the zone.
func (z *Zone) observe(r Row) {
	if z.Rows == 0 {
		z.MinProbe, z.MaxProbe = r.Probe, r.Probe
		z.MinTime, z.MaxTime = r.TimeNano, r.TimeNano
		z.MinRegion, z.MaxRegion = r.Region, r.Region
	} else {
		z.MinProbe, z.MaxProbe = min(z.MinProbe, r.Probe), max(z.MaxProbe, r.Probe)
		z.MinTime, z.MaxTime = min(z.MinTime, r.TimeNano), max(z.MaxTime, r.TimeNano)
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
	zoneFlagRegions = 1 << 1 // per-region aggregate list present (read past, never written)
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
	b = appendUvarint(b, zoneFlagAgg)
	if z.Delivered > 0 {
		b = appendFloatBits(b, z.RTTSum)
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
	raw, err := sectionBytes(c)
	if err != nil {
		return z, err
	}
	z.MinRegion = string(raw)
	if raw, err = sectionBytes(c); err != nil {
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
		if err := skipRegionZones(c, z); err != nil {
			return z, err
		}
	}
	if c.remaining() != 0 {
		return z, fmt.Errorf("colf: %d stray bytes after zone", c.remaining())
	}
	return z, nil
}

// skipRegionZones reads past the per-region aggregate list of zone z,
// which stores written before this version carry, and checks that its
// entries tile the zone's rows and delivered rows.
func skipRegionZones(c *byteCursor, z Zone) error {
	count, err := c.uvarint()
	if err != nil {
		return err
	}
	if count == 0 || count > maxZoneRegions || count > uint64(z.Rows) {
		return fmt.Errorf("colf: implausible zone region count %d for %d rows", count, z.Rows)
	}
	var sumRows, sumDelivered uint64
	for i := uint64(0); i < count; i++ {
		if _, err := sectionBytes(c); err != nil { // the region
			return err
		}
		var f [3]uint64 // first row, rows, delivered
		for k := range f {
			if f[k], err = c.uvarint(); err != nil {
				return err
			}
		}
		if f[0] >= uint64(z.Rows) || f[1] > uint64(z.Rows) || f[2] > f[1] {
			return fmt.Errorf("colf: implausible zone region entry %d (first %d, rows %d, delivered %d)",
				i, f[0], f[1], f[2])
		}
		if f[2] > 0 {
			if _, err := c.floatBits(); err != nil {
				return err
			}
		}
		sumRows += f[1]
		sumDelivered += f[2]
	}
	if sumRows != uint64(z.Rows) || sumDelivered != uint64(z.Delivered) {
		return fmt.Errorf("colf: zone region aggregates cover %d rows/%d delivered, zone has %d/%d",
			sumRows, sumDelivered, z.Rows, z.Delivered)
	}
	return nil
}

// Predicate is a time window over the timestamp column. MatchZone is
// the block-skipping side: it answers "may this block contain a
// matching row?" and errs toward true, so skipping is always safe.
// Row-level filtering stays the consumer's job — a scan pass must
// still test every decoded row (MatchRow), because kept blocks carry
// non-matching rows too.
type Predicate struct {
	// Since/Until restrict timestamps to the half-open window
	// [Since, Until). Zero times leave the corresponding side open.
	Since, Until time.Time
}

// Empty reports whether the predicate constrains nothing.
func (p *Predicate) Empty() bool {
	return p == nil || (p.Since.IsZero() && p.Until.IsZero())
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
	return p.Until.IsZero() || z.MinTime < p.Until.UnixNano()
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
	return p.Until.IsZero() || z.MaxTime < p.Until.UnixNano()
}

// MatchRow is the row-level mirror of MatchZone: exact, not
// conservative.
func (p *Predicate) MatchRow(timeNano int64) bool {
	if p == nil {
		return true
	}
	if !p.Since.IsZero() && timeNano < p.Since.UnixNano() {
		return false
	}
	return p.Until.IsZero() || timeNano < p.Until.UnixNano()
}
