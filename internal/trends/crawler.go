package trends

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"regexp"
	"strconv"
)

// Crawler scrapes yearly result counts from a scholar-like server, with
// bounded retries — an operational concern the paper's custom crawler
// [38] had to handle.
type Crawler struct {
	base string
	hc   *http.Client
}

// fetchRetries is how many times a failed fetch is retried.
const fetchRetries = 2

// NewCrawler targets a server base URL.
func NewCrawler(base string, hc *http.Client) (*Crawler, error) {
	if base == "" {
		return nil, errors.New("trends: empty base URL")
	}
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Crawler{base: base, hc: hc}, nil
}

var aboutRe = regexp.MustCompile(`About (\d+) results`)

// fetch grabs the first result page.
func (c *Crawler) fetch(ctx context.Context, term Term, year int) (string, error) {
	q := url.Values{}
	q.Set("q", string(term))
	q.Set("as_ylo", strconv.Itoa(year))
	q.Set("as_yhi", strconv.Itoa(year))
	u := c.base + "/scholar?" + q.Encode()
	var lastErr error
	for attempt := 0; attempt <= fetchRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return "", err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			return "", err
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			lastErr = fmt.Errorf("trends: %s: %s", u, resp.Status)
			continue
		}
		return string(body), nil
	}
	return "", fmt.Errorf("trends: giving up on %s: %w", u, lastErr)
}

// Count scrapes the "About N results" header for (term, year).
func (c *Crawler) Count(ctx context.Context, term Term, year int) (int, error) {
	page, err := c.fetch(ctx, term, year)
	if err != nil {
		return 0, err
	}
	m := aboutRe.FindStringSubmatch(page)
	if m == nil {
		return 0, fmt.Errorf("trends: no result count on page for %q %d", term, year)
	}
	return strconv.Atoi(m[1])
}

// YearlyCounts scrapes the full Figure 1 publication series for a term.
func (c *Crawler) YearlyCounts(ctx context.Context, term Term) (map[int]int, error) {
	out := make(map[int]int, LastYear-FirstYear+1)
	for _, y := range Years() {
		n, err := c.Count(ctx, term, y)
		if err != nil {
			return nil, err
		}
		out[y] = n
	}
	return out, nil
}
