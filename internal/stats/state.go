package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/snap"
)

// State codec, used by the temporal index's node records. A Dist
// serializes its exact in-memory accumulator — float fields as raw
// IEEE-754 bits, samples in insertion order — so a decoded Dist continues adding and merging bitwise
// identically to one that never left memory. The decoder validates
// structure (counts vs remaining bytes) and rejects values Add would
// reject, so corrupt state surfaces as an error rather than a subtly
// wrong figure.

// AppendState appends d's serialized accumulator state to b. The sample
// buffer is written as one contiguous slab of IEEE-754 bits — index
// nodes carry log₂ n buffered floats per dataset sample, so this loop
// is the bulk of every index build.
func (d *Dist) AppendState(b []byte) []byte {
	if len(d.spans) == 1 {
		span := d.spans[0]
		n, m := len(span)/8, len(d.samples)
		b = snap.AppendUvarint(b, uint64(n+m))
		if m == 0 {
			// A still-serialized span round-trips verbatim.
			b = append(b, span...)
		} else {
			// Merge the span slab with the sorted overlay straight into
			// the output, written ascending — the same bytes a sorted
			// materialized buffer would serialize.
			ov := append([]float64(nil), d.samples...)
			sort.Float64s(ov)
			b = slices.Grow(b, 8*(n+m)+19)
			off := len(b)
			b = b[:off+8*(n+m)]
			i, j := 0, 0
			for k := 0; k < n+m; k++ {
				var bits uint64
				if i < n {
					sb := binary.LittleEndian.Uint64(span[8*i:])
					if j >= m || math.Float64frombits(sb) <= ov[j] {
						bits = sb
						i++
					} else {
						bits = math.Float64bits(ov[j])
						j++
					}
				} else {
					bits = math.Float64bits(ov[j])
					j++
				}
				binary.LittleEndian.PutUint64(b[off+8*k:], bits)
			}
		}
		b = snap.AppendFloat(b, d.sum)
		b = snap.AppendFloat(b, d.sumSq)
		return snap.AppendBool(b, true)
	}
	if len(d.spans) > 1 {
		// Multi-span states arise only transiently, from window
		// composition; serialize by merging on a clone so d stays lazy.
		// AppendState has never validated span bits (checksums vouch for
		// them), so an undecodable slab serializes as a sorted best
		// effort of the decodable prefix rather than panicking.
		c := d.Clone()
		if err := c.materialize(); err != nil {
			c.spans = nil
			c.ensureSorted()
		}
		return c.AppendState(b)
	}
	b = snap.AppendUvarint(b, uint64(len(d.samples)))
	b = slices.Grow(b, 8*len(d.samples)+19)
	off := len(b)
	b = b[:off+8*len(d.samples)]
	for i, v := range d.samples {
		binary.LittleEndian.PutUint64(b[off+8*i:], math.Float64bits(v))
	}
	b = snap.AppendFloat(b, d.sum)
	b = snap.AppendFloat(b, d.sumSq)
	return snap.AppendBool(b, d.sorted)
}

// Sort orders the sample buffer ascending, exactly as report-time
// queries do lazily. Sorting commutes with every downstream result —
// the running sums are carried explicitly and quantiles see the same
// multiset — but a buffer sorted before serialization round-trips with
// sorted=true, so a query over the decoded state skips the large re-sort.
func (d *Dist) Sort() {
	if len(d.spans) > 0 {
		return // spans are sorted by construction
	}
	d.ensureSorted()
}

// DecodeDistState decodes one Dist state from c. A sorted sample slab is
// captured by reference as a lazy span (see Dist.spans): the cursor's
// buffer must therefore outlive the distribution unmodified, as the
// temporal index's record buffers do.
// Per-sample validation runs when the span is first touched; untouched
// spans are vouched for by the record's checksum.
func DecodeDistState(c *snap.Cursor) (*Dist, error) {
	n, err := c.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(c.Remaining())/8 {
		return nil, fmt.Errorf("stats: dist claims %d samples, %d bytes remain", n, c.Remaining())
	}
	var raw []byte
	if n > 0 {
		if raw, err = c.Bytes(int(n) * 8); err != nil {
			return nil, err
		}
	}
	d := &Dist{}
	if d.sum, err = c.Float(); err != nil {
		return nil, err
	}
	if d.sumSq, err = c.Float(); err != nil {
		return nil, err
	}
	if d.sorted, err = c.Bool(); err != nil {
		return nil, err
	}
	if n > 0 {
		d.spans = [][]byte{raw}
		if !d.sorted {
			// An unsorted buffer cannot serve order-statistic reads;
			// decode it eagerly, restoring insertion order.
			if err := d.materialize(); err != nil {
				return nil, err
			}
			d.sorted = false
		}
	}
	return d, nil
}
