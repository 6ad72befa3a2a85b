package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/figures"
	"repro/internal/serve"
)

// runRemote prints the figures a running atlasd -serve-data instance
// pre-renders (serve.ServedFigures), under the figures table's captions,
// fetched from its analysis API instead of scanning a local dataset.
// The serving engine answers from its resident snapshot, so this needs
// no dataset on this machine and works while the remote campaign is
// still appending. Every figure carries the serving snapshot's ETag; if
// it advances between fetches the mismatch is reported so the caller
// knows the set is not one consistent cut.
func runRemote(base string, out io.Writer) error {
	client := &http.Client{Timeout: 30 * time.Second}
	base = strings.TrimRight(base, "/")
	etags := make(map[string]bool)
	for _, name := range serve.ServedFigures {
		f, _ := figures.Lookup(name)
		body, etag, err := fetchFigure(client, base, name)
		if err != nil {
			return err
		}
		if etag != "" {
			etags[etag] = true
		}
		fmt.Fprintf(out, "\n=== Figure %s ===\n", f.Title())
		if _, err := out.Write(body); err != nil {
			return err
		}
	}
	if len(etags) > 1 {
		fmt.Fprintf(out, "\nwarning: serving snapshot advanced mid-fetch (%d distinct ETags); figures span more than one dataset cut\n", len(etags))
	}
	return nil
}

// fetchFigure gets one pre-rendered figure, surfacing the server's
// stable {"error": ...} payload on failure.
func fetchFigure(c *http.Client, base, fig string) (body []byte, etag string, err error) {
	url := base + "/api/v1/figures/" + fig
	resp, err := c.Get(url)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, "", fmt.Errorf("reading %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return nil, "", fmt.Errorf("%s: %s (status %d)", url, e.Error, resp.StatusCode)
		}
		return nil, "", fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return body, resp.Header.Get("Etag"), nil
}
