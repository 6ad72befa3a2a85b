// The rounding rules of appendCurveP reproduce those of Go's
// strconv/ftoaryu.go, Copyright 2021 The Go Authors. All rights
// reserved. Use of that source code is governed by a BSD-style license
// reproduced in the NOTICE file at the root of this repository.

package serve

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// pow5 holds 5^q for the scales q in [17, 23] a value in [1e-6, 1)
// needs: each scaled bound is then one exact bits.Mul64, and strconv's
// rules apply to exact integers, not a 128-bit table's truncations.
var pow5 = [24]uint64{17: 762939453125, 3814697265625, 19073486328125, 95367431640625,
	476837158203125, 2384185791015625, 11920928955078125}

// scaled splits m·5^q / 2^shift into its integer part and fraction.
func scaled(m, p5 uint64, shift uint) (whole, frac uint64) {
	hi, lo := bits.Mul64(m, p5)
	return hi<<(64-shift) | lo>>shift, lo & (1<<shift - 1)
}

// appendCurveP appends f as strconv.AppendFloat(b, f, 'f', -1, 64) and
// so encoding/json would. It declines, returning b and false, any f
// outside [1e-6, 1) and bounds straddling a multiple of 1e9, whose
// digits strconv trims nine at a time.
func appendCurveP(b []byte, f float64) ([]byte, bool) {
	if !(f >= 1e-6 && f < 1) {
		return b, false
	}
	fb := math.Float64bits(f)
	mant := fb&(1<<52-1) | 1<<52
	// f = mid·2^e2; the doubles either side round at lo·2^e2 and
	// hi·2^e2, and at a power of two the gap below is half the gap above.
	e2 := int(fb>>52) - 1076
	lo, mid, hi := 2*mant-1, 2*mant, 2*mant+1
	if mant == 1<<52 {
		lo, mid, hi, e2 = 4*mant-1, 4*mant, 4*mant+2, e2-1
	}
	// Scale by the least 10^q above 2^-e2, the q strconv picks.
	q := (-e2*78913)>>18 + 1
	shift := uint(-e2 - q)
	dl, _ := scaled(lo, pow5[q], shift)
	dc, fc := scaled(mid, pow5[q], shift)
	du, _ := scaled(hi, pow5[q], shift)
	// lo and hi hold at most one factor of two and shift is at least 37,
	// so neither bound scales to an integer and an even mantissa's claim
	// to its bounds never arises: the interval's integers are dl+1..du.
	dl++
	if dl/1e9 != du/1e9 {
		return b, false
	}
	half := uint64(1) << (shift - 1)
	cup, c0 := fc > half || fc == half && dc&1 == 1, fc == 0
	// Trim the low nine digits one at a time while the shorter number
	// still lies in the interval, keeping the digits cut from the centre
	// to round it half to even.
	chi, scale, frac, next := dc/1e9, uint64(1e9), q, uint64(0)
	l, c, u := dl%1e9, dc%1e9, du%1e9
	for u > 0 {
		l1, c1, cd, u1 := (l+9)/10, c/10, c%10, u/10
		if l1 > u1 {
			break
		}
		if l1 == c1+1 && c1 < u1 {
			c1, cd, cup = c1+1, 0, false
		}
		c0, next = c0 && next == 0, cd
		l, c, u, scale, frac = l1, c1, u1, scale/10, frac-1
	}
	if frac < q {
		cup = next > 5 || next == 5 && (!c0 || c&1 == 1)
	}
	if c < u && cup {
		c++
	}
	// f = d·10^-frac, and f < 1 puts all of d's digits after the point:
	// render d as 18 zero-padded digits behind eight more zeros, take
	// the last frac of them after a "0.", and drop trailing zeros.
	d := chi*scale + c
	var buf [26]byte
	binary.LittleEndian.PutUint64(buf[:], 0x3030303030303030)
	buf[8], buf[9] = byte('0'+d/1e16/10), byte('0'+d/1e16%10)
	put8(buf[10:], d/1e8%1e8)
	put8(buf[18:], d%1e8)
	end := len(buf)
	for buf[end-1] == '0' {
		end--
	}
	start := len(buf) - frac - 2
	buf[start], buf[start+1] = '0', '.'
	return append(b, buf[start:end]...), true
}

// put8 writes x < 1e8 into p as eight zero-padded digits at once: two
// 4-digit lanes of a uint64 split into 2-digit and then 1-digit lanes,
// each by a multiply with a reciprocal exact over the lane's range.
// Rendering d with strconv.AppendUint instead made BenchmarkEncodeCDFBody
// about a third slower.
func put8(p []byte, x uint64) {
	v := x/1e4 | x%1e4<<32
	q := v * 10486 >> 20 & 0x7f_0000_007f
	v = q | (v-q*100)<<16
	q = v * 103 >> 10 & 0x000f_000f_000f_000f
	v = q | (v-q*10)<<8
	binary.LittleEndian.PutUint64(p, v+0x3030303030303030)
}
