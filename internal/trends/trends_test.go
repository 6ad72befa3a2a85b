package trends

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

func scholarFixture(t *testing.T) (*Corpus, *Crawler) {
	t.Helper()
	corpus := GenerateCorpus(1)
	srv, err := NewScholarServer(corpus)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c, err := NewCrawler(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	return corpus, c
}

func TestCorpusShape(t *testing.T) {
	c := GenerateCorpus(1)
	// Cloud dwarfs edge through the whole window; both grow over time.
	for _, y := range Years() {
		cloud, err := c.Count(CloudComputing, y)
		if err != nil {
			t.Fatal(err)
		}
		edge, err := c.Count(EdgeComputing, y)
		if err != nil {
			t.Fatal(err)
		}
		if cloud < edge {
			t.Errorf("%d: cloud pubs %d < edge pubs %d", y, cloud, edge)
		}
	}
	// The cloud boom: 2019 publications far exceed 2006.
	c06, _ := c.Count(CloudComputing, 2006)
	c19, _ := c.Count(CloudComputing, 2019)
	if c19 < c06*20 {
		t.Errorf("cloud boom missing: %d -> %d", c06, c19)
	}
	// The edge surge: 2019 far exceeds 2014.
	e14, _ := c.Count(EdgeComputing, 2014)
	e19, _ := c.Count(EdgeComputing, 2019)
	if e19 < e14*10 {
		t.Errorf("edge surge missing: %d -> %d", e14, e19)
	}
	// Determinism and seed sensitivity.
	if n1, _ := GenerateCorpus(5).Count(EdgeComputing, 2018); n1 != mustCount(t, GenerateCorpus(5), EdgeComputing, 2018) {
		t.Error("corpus not deterministic")
	}
	// Errors.
	if _, err := c.Count(Term("quantum computing"), 2018); err == nil {
		t.Error("unknown term accepted")
	}
	if _, err := c.Count(EdgeComputing, 1999); err == nil {
		t.Error("out-of-window year accepted")
	}
}

func mustCount(t *testing.T, c *Corpus, term Term, year int) int {
	t.Helper()
	n, err := c.Count(term, year)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSearchPopularityShape(t *testing.T) {
	// Cloud search peaks around 2011 and declines after; edge rises late.
	peak, _ := SearchPopularity(CloudComputing, 2011)
	late, _ := SearchPopularity(CloudComputing, 2019)
	early, _ := SearchPopularity(CloudComputing, 2005)
	if !(peak > late && peak > early) {
		t.Errorf("cloud search not peaked: 2005=%.0f 2011=%.0f 2019=%.0f", early, peak, late)
	}
	e15, _ := SearchPopularity(EdgeComputing, 2015)
	e19, _ := SearchPopularity(EdgeComputing, 2019)
	if e19 < e15*3 {
		t.Errorf("edge search surge missing: 2015=%.1f 2019=%.1f", e15, e19)
	}
	for _, y := range Years() {
		for _, term := range []Term{EdgeComputing, CloudComputing} {
			v, err := SearchPopularity(term, y)
			if err != nil {
				t.Fatal(err)
			}
			if v < 0 || v > 100 {
				t.Errorf("%s %d popularity %v out of [0,100]", term, y, v)
			}
		}
	}
	if _, err := SearchPopularity(EdgeComputing, 2050); err == nil {
		t.Error("future year accepted")
	}
	if _, err := SearchPopularity(Term("x"), 2010); err == nil {
		t.Error("unknown term accepted")
	}
}

func TestCrawlerCountsMatchCorpus(t *testing.T) {
	corpus, crawler := scholarFixture(t)
	ctx := context.Background()
	for _, y := range []int{2004, 2011, 2019} {
		for _, term := range []Term{EdgeComputing, CloudComputing} {
			want := mustCountT(t, corpus, term, y)
			got, err := crawler.Count(ctx, term, y)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s %d: crawled %d, corpus has %d", term, y, got, want)
			}
		}
	}
}

func mustCountT(t *testing.T, c *Corpus, term Term, year int) int {
	t.Helper()
	n, err := c.Count(term, year)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestCrawlerErrors(t *testing.T) {
	_, crawler := scholarFixture(t)
	ctx := context.Background()
	if _, err := crawler.Count(ctx, Term("nope"), 2010); err == nil {
		t.Error("unknown term crawl succeeded")
	}
	if _, err := crawler.Count(ctx, EdgeComputing, 1900); err == nil {
		t.Error("out-of-window crawl succeeded")
	}
	if _, err := NewCrawler("", nil); err == nil {
		t.Error("empty base accepted")
	}
	// Unreachable server exhausts retries.
	dead, err := NewCrawler("http://127.0.0.1:1", &http.Client{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dead.Count(ctx, EdgeComputing, 2010); err == nil {
		t.Error("dead server crawl succeeded")
	}
}

func TestServerBadRequests(t *testing.T) {
	corpus := GenerateCorpus(1)
	srv, err := NewScholarServer(corpus)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/scholar?q=edge+computing&as_ylo=abc&as_yhi=2010", http.StatusBadRequest},
		{"/scholar?q=edge+computing&as_ylo=2010&as_yhi=2011", http.StatusBadRequest},
		{"/scholar?q=edge+computing&as_ylo=2010&as_yhi=2010&start=-1", http.StatusBadRequest},
		{"/other", http.StatusNotFound},
	} {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s = %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
	if _, err := NewScholarServer(nil); err == nil {
		t.Error("nil corpus accepted")
	}
}

func trendsFixture(t *testing.T) *TrendsClient {
	t.Helper()
	ts := httptest.NewServer(NewTrendsServer())
	t.Cleanup(ts.Close)
	tc, err := NewTrendsClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	return tc
}

func TestTrendsAPI(t *testing.T) {
	tc := trendsFixture(t)
	ctx := context.Background()
	for _, term := range []Term{EdgeComputing, CloudComputing} {
		got, err := tc.Popularity(ctx, term)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != LastYear-FirstYear+1 {
			t.Fatalf("%s series has %d years", term, len(got))
		}
		for _, y := range Years() {
			want, err := SearchPopularity(term, y)
			if err != nil {
				t.Fatal(err)
			}
			if got[y] != want {
				t.Errorf("%s %d: API %v != model %v", term, y, got[y], want)
			}
		}
	}
	// Unknown terms are a 404.
	if _, err := tc.Popularity(ctx, Term("quantum")); err == nil {
		t.Error("unknown term accepted")
	}
	// Unknown paths are a 404.
	ts := httptest.NewServer(NewTrendsServer())
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/other")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /other = %d", resp.StatusCode)
	}
	if _, err := NewTrendsClient("", nil); err == nil {
		t.Error("empty base accepted")
	}
}

func TestBuildSeriesFigure1(t *testing.T) {
	_, crawler := scholarFixture(t)
	s, err := BuildSeries(context.Background(), crawler, trendsFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != LastYear-FirstYear+1 {
		t.Fatalf("series has %d points", len(s.Points))
	}
	// Three eras appear in order.
	eras := s.Eras()
	if eras[2004] != EraCDN {
		t.Errorf("2004 era = %s, want CDN", eras[2004])
	}
	if eras[2012] != EraCloud {
		t.Errorf("2012 era = %s, want Cloud", eras[2012])
	}
	if eras[2019] != EraEdge {
		t.Errorf("2019 era = %s, want Edge", eras[2019])
	}
	// Era transitions are monotone: CDN* Cloud* Edge*.
	order := map[Era]int{EraCDN: 0, EraCloud: 1, EraEdge: 2}
	prev := 0
	for _, y := range Years() {
		cur := order[eras[y]]
		if cur < prev {
			t.Fatalf("era regressed at %d: %s", y, eras[y])
		}
		prev = cur
	}
	if _, err := s.EraOf(1999); err == nil {
		t.Error("out-of-series year accepted")
	}
	if _, err := BuildSeries(context.Background(), nil, trendsFixture(t)); err == nil {
		t.Error("nil crawler accepted")
	}
	if _, err := BuildSeries(context.Background(), crawler, nil); err == nil {
		t.Error("nil trends client accepted")
	}
}
