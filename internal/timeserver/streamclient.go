package timeserver

import (
	"bufio"
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"

	"timedrelease/internal/core"
	"timedrelease/internal/token"
)

// ErrStreamUnsupported reports a server without the /v1/stream
// endpoint (pre-stream deployments answer 404 for the unknown route).
// Relay.Run treats it as a signal to fall back to periodic catch-up.
var ErrStreamUnsupported = errors.New("timeserver: server does not support /v1/stream")

// errStopStream is the sentinel a StreamUpdates callback returns to end
// the stream cleanly once it has what it wanted.
var errStopStream = errors.New("timeserver: stop stream")

// streamHTTP returns an HTTP client suitable for a long-lived stream:
// the configured client's transport (so tests and fault injection see
// stream requests too) without its overall request timeout, which
// would sever a healthy stream mid-flight.
func (c *Client) streamHTTP() *http.Client {
	return &http.Client{Transport: c.http.Transport, Jar: c.http.Jar}
}

// StreamUpdates opens ONE /v1/stream connection and invokes fn for
// every pushed update until the stream ends, the context is cancelled,
// or fn returns an error (errStopStream/fn's own). from != "" replays
// the archive from that label before going live. Every event is
// decoded, verified against the pinned server key and cached BEFORE fn
// sees it — a malicious relay or transport can starve the stream but
// never inject a wrong update (ErrBadUpdate aborts immediately).
//
// It returns the number of verified updates delivered. A nil error
// means the server ended the stream deliberately (drain or shed);
// transport errors mean a disconnect. Callers wanting automatic
// reconnection use a Relay; a receiver waiting for one label uses
// WaitForRelease.
func (c *Client) StreamUpdates(ctx context.Context, from string, fn func(core.KeyUpdate) error) (int, error) {
	path := c.base + "/v1/stream"
	if from != "" {
		path += "?from=" + url.QueryEscape(from)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, path, nil)
	if err != nil {
		return 0, fmt.Errorf("timeserver: building stream request: %w", err)
	}
	req.Header.Set("Accept", "text/event-stream")
	// A gated server admits one stream connection per token
	// (docs/TOKENS.md); every dial spends one from the wallet.
	if c.wallet != nil {
		hdr, err := c.popTokenHeader()
		if err != nil {
			return 0, err
		}
		req.Header.Set(TokenHeader, hdr)
	}
	resp, err := c.streamHTTP().Do(req)
	if err != nil {
		return 0, fmt.Errorf("timeserver: /v1/stream: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		if c.wallet != nil {
			c.met.tokenRedeemed.Inc()
		}
	case http.StatusNotFound:
		return 0, ErrStreamUnsupported
	case http.StatusUnauthorized:
		return 0, ErrTokenRequired
	case http.StatusConflict:
		c.met.tokenRejected.Inc()
		return 0, token.ErrDoubleSpend
	default:
		return 0, fmt.Errorf("timeserver: /v1/stream: unexpected status %d", resp.StatusCode)
	}

	delivered := 0
	br := bufio.NewReaderSize(resp.Body, 4096)
	var data []byte
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			// EOF after a drain/shed comment is a deliberate server close;
			// either way the stream is over and the caller decides whether
			// to reconnect.
			return delivered, err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "": // event boundary
			if len(data) == 0 {
				continue
			}
			raw, err := base64.StdEncoding.DecodeString(string(data))
			data = data[:0]
			if err != nil {
				return delivered, fmt.Errorf("timeserver: malformed stream event: %w", err)
			}
			start := time.Now()
			u, err := c.codec.UnmarshalKeyUpdate(raw)
			if err != nil {
				return delivered, fmt.Errorf("timeserver: stream event: %w", err)
			}
			if !c.sc.VerifyUpdate(c.spub, u) {
				c.met.verifyNS.Since(start)
				return delivered, ErrBadUpdate
			}
			c.met.verifyNS.Since(start)
			c.store(u)
			c.met.streamEvents.Inc()
			delivered++
			if err := fn(u); err != nil {
				if errors.Is(err, errStopStream) {
					return delivered, nil
				}
				return delivered, err
			}
		case strings.HasPrefix(line, ":"): // comment: ready/keepalive/drain/dropped
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimSpace(line[len("data:"):])...)
		default: // unknown SSE field — ignore for forward compatibility
		}
	}
}
