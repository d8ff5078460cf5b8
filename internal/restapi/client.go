package restapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// Client is a typed HTTP client for a node daemon, the way a remote
// caller reaches a Pi (the quickstart and the Fig. 4 experiment use it).
type Client struct {
	BaseURL string
	HTTP    *http.Client
}

// NewClient builds a client; httpClient may be nil (http.DefaultClient).
func NewClient(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{BaseURL: baseURL, HTTP: httpClient}
}

// apiError converts a non-2xx response to an error.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var doc ErrorDoc
	if err := json.Unmarshal(body, &doc); err == nil && doc.Error != "" {
		return fmt.Errorf("restapi: %s: %s", resp.Status, doc.Error)
	}
	return fmt.Errorf("restapi: %s", resp.Status)
}

// do performs a request and decodes a JSON response into out (out may be
// nil for empty responses).
func (c *Client) do(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("restapi: encoding request: %w", err)
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, body)
	if err != nil {
		return fmt.Errorf("restapi: building request: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return fmt.Errorf("restapi: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return apiError(resp)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("restapi: decoding response: %w", err)
	}
	return nil
}

// Status fetches GET /status.
func (c *Client) Status() (NodeStatus, error) {
	var st NodeStatus
	err := c.do(http.MethodGet, APIPrefix+"/status", nil, &st)
	return st, err
}

// Containers fetches GET /containers.
func (c *Client) Containers() ([]ContainerDoc, error) {
	var out []ContainerDoc
	err := c.do(http.MethodGet, APIPrefix+"/containers", nil, &out)
	return out, err
}

// Container fetches one container document.
func (c *Client) Container(name string) (ContainerDoc, error) {
	var out ContainerDoc
	err := c.do(http.MethodGet, APIPrefix+"/containers/"+name, nil, &out)
	return out, err
}

// Spawn creates and starts a container.
func (c *Client) Spawn(req SpawnRequest) (ContainerDoc, error) {
	var out ContainerDoc
	err := c.do(http.MethodPost, APIPrefix+"/containers", req, &out)
	return out, err
}

// Delete stops and destroys a container.
func (c *Client) Delete(name string) error {
	return c.do(http.MethodDelete, APIPrefix+"/containers/"+name, nil, nil)
}

// Action runs start/stop/freeze/unfreeze.
func (c *Client) Action(name, action string) (ContainerDoc, error) {
	var out ContainerDoc
	err := c.do(http.MethodPost, APIPrefix+"/containers/"+name+"/actions", ActionRequest{Action: action}, &out)
	return out, err
}

// SetLimits updates soft resource limits.
func (c *Client) SetLimits(name string, req LimitsRequest) (ContainerDoc, error) {
	var out ContainerDoc
	err := c.do(http.MethodPut, APIPrefix+"/containers/"+name+"/limits", req, &out)
	return out, err
}

// Metrics fetches the instrumentation snapshot.
func (c *Client) Metrics() (map[string]float64, error) {
	var out map[string]float64
	err := c.do(http.MethodGet, APIPrefix+"/metrics", nil, &out)
	return out, err
}

// Series fetches the sampled monitoring series summaries.
func (c *Client) Series() ([]SeriesSummary, error) {
	var out []SeriesSummary
	err := c.do(http.MethodGet, APIPrefix+"/series", nil, &out)
	return out, err
}
