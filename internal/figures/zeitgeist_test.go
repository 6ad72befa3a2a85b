package figures

import "testing"

func TestCorpusShape(t *testing.T) {
	// Cloud dwarfs edge through the whole window; both grow over time.
	for y := firstYear; y <= lastYear; y++ {
		cloud, edge := modelCount(CloudComputing, y), modelCount(EdgeComputing, y)
		if cloud < edge {
			t.Errorf("%d: cloud pubs %d < edge pubs %d", y, cloud, edge)
		}
	}
	// The cloud boom: 2019 publications far exceed 2006.
	c06, c19 := modelCount(CloudComputing, 2006), modelCount(CloudComputing, 2019)
	if c19 < c06*20 {
		t.Errorf("cloud boom missing: %d -> %d", c06, c19)
	}
	// The edge surge: 2019 far exceeds 2014.
	e14, e19 := modelCount(EdgeComputing, 2014), modelCount(EdgeComputing, 2019)
	if e19 < e14*10 {
		t.Errorf("edge surge missing: %d -> %d", e14, e19)
	}
}

func TestSearchPopularityShape(t *testing.T) {
	// Cloud search peaks around 2011 and declines after; edge rises late.
	peak := SearchPopularity(CloudComputing, 2011)
	late := SearchPopularity(CloudComputing, 2019)
	early := SearchPopularity(CloudComputing, 2005)
	if !(peak > late && peak > early) {
		t.Errorf("cloud search not peaked: 2005=%.0f 2011=%.0f 2019=%.0f", early, peak, late)
	}
	e15, e19 := SearchPopularity(EdgeComputing, 2015), SearchPopularity(EdgeComputing, 2019)
	if e19 < e15*3 {
		t.Errorf("edge search surge missing: 2015=%.1f 2019=%.1f", e15, e19)
	}
	for y := firstYear; y <= lastYear; y++ {
		for _, term := range []Term{EdgeComputing, CloudComputing} {
			if v := SearchPopularity(term, y); v < 0 || v > 100 {
				t.Errorf("%s %d popularity %v out of [0,100]", term, y, v)
			}
		}
	}
}
