package atlas

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/results"
)

// Client is the SDK for the platform's HTTP API.
type Client struct {
	base    string
	account string
	hc      *http.Client
}

// NewClient targets a server base URL (e.g. "http://127.0.0.1:8080") on
// behalf of an account.
func NewClient(base, account string, hc *http.Client) (*Client, error) {
	if base == "" {
		return nil, fmt.Errorf("atlas: empty base URL")
	}
	if account == "" {
		return nil, fmt.Errorf("atlas: empty account")
	}
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: base, account: account, hc: hc}, nil
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeResponse(resp, out)
}

func decodeResponse(resp *http.Response, out any) error {
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return fmt.Errorf("atlas: %s: %s", resp.Status, e.Error)
		}
		return fmt.Errorf("atlas: %s", resp.Status)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(body, out)
}

// ProbeFilter narrows probe discovery.
type ProbeFilter struct {
	Country   string // ISO2
	Continent string // two-letter code
	Tag       string // user tag, e.g. "wifi"
	Limit     int
}

// Probes lists public probes matching the filter.
func (c *Client) Probes(ctx context.Context, f ProbeFilter) ([]ProbeDTO, error) {
	q := url.Values{}
	if f.Country != "" {
		q.Set("country", f.Country)
	}
	if f.Continent != "" {
		q.Set("continent", f.Continent)
	}
	if f.Tag != "" {
		q.Set("tag", f.Tag)
	}
	if f.Limit > 0 {
		q.Set("limit", strconv.Itoa(f.Limit))
	}
	path := "/api/v1/probes"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var out []ProbeDTO
	err := c.get(ctx, path, &out)
	return out, err
}

// Regions lists the measurement targets.
func (c *Client) Regions(ctx context.Context) ([]RegionDTO, error) {
	var out []RegionDTO
	err := c.get(ctx, "/api/v1/regions", &out)
	return out, err
}

// Credits returns the account's balance and lifetime spend.
func (c *Client) Credits(ctx context.Context) (balance, spent int64, err error) {
	var out struct {
		Balance int64 `json:"balance"`
		Spent   int64 `json:"spent"`
	}
	if err := c.get(ctx, "/api/v1/credits/"+url.PathEscape(c.account), &out); err != nil {
		return 0, 0, err
	}
	return out.Balance, out.Spent, nil
}

// CreateMeasurement submits a live measurement and returns its ID.
func (c *Client) CreateMeasurement(ctx context.Context, target string, probeIDs []int, count int, interval, timeout time.Duration) (int, error) {
	dto := SpecDTO{
		Account:    c.account,
		Target:     target,
		ProbeIDs:   probeIDs,
		Count:      count,
		IntervalMs: int64(interval / time.Millisecond),
		TimeoutMs:  int64(timeout / time.Millisecond),
	}
	body, err := json.Marshal(dto)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/api/v1/measurements", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var out struct {
		ID int `json:"id"`
	}
	if err := decodeResponse(resp, &out); err != nil {
		return 0, err
	}
	return out.ID, nil
}

// Measurement fetches a measurement's status (without results).
func (c *Client) Measurement(ctx context.Context, id int) (Measurement, error) {
	var out Measurement
	err := c.get(ctx, fmt.Sprintf("/api/v1/measurements/%d", id), &out)
	return out, err
}

// Results fetches a measurement's collected samples.
func (c *Client) Results(ctx context.Context, id int) ([]results.Sample, error) {
	var out []results.Sample
	err := c.get(ctx, fmt.Sprintf("/api/v1/measurements/%d/results", id), &out)
	return out, err
}

// WaitDone polls until the measurement completes, then returns its results.
func (c *Client) WaitDone(ctx context.Context, id int) ([]results.Sample, error) {
	for {
		m, err := c.Measurement(ctx, id)
		if err != nil {
			return nil, err
		}
		switch m.Status {
		case StatusDone:
			return c.Results(ctx, id)
		case StatusFailed:
			return nil, fmt.Errorf("atlas: measurement %d failed: %s", id, m.Error)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}
