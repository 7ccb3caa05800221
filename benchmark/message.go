package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"

	"timedrelease/internal/core"
	"timedrelease/internal/obs"
)

const (
	messageEpochs = 320  // pre-published labels the messages are sealed to
	messageBytes  = 1024 // plaintext size
)

// message is the message-bls12381 workload: one sender seals a 1 KiB
// message to an epoch, one receiver opens it — fetch the epoch's
// update over HTTP, decode, verify, decrypt — each party on its own
// scheme. The labels are visited in a seeded permutation cycled over
// all of them; a scheme's label-point cache holds 8 labels per shard
// and each shard sees ~32 in a fixed cycle, so every hash of a label is
// a miss: a message on a fresh epoch.
type message struct {
	*origin
	sender, receiver *core.Scheme
	user             *core.UserKeyPair
	reg              *obs.Registry
	base             map[string]int64 // reg's counters when the run started
	order            []int            // visiting order over labels
	rng              *rand.Rand
	http             *http.Client
	tt               *tracedTransport
	next             int
}

func setupMessage(cfg config, t *tracer, rng *rand.Rand) (instance, error) {
	o, err := newOrigin(cfg, t, rng, originOpts{preset: "BLS12-381", epochs: messageEpochs / cfg.scale, middleware: true, decorator: true})
	if err != nil {
		return nil, err
	}
	m := &message{origin: o, sender: core.NewScheme(o.set), receiver: core.NewScheme(o.set), rng: rng}
	if t.layers {
		m.reg = obs.NewRegistry()
		m.sender.Instrument(m.reg)
		m.receiver.Instrument(m.reg)
	}
	if m.user, err = m.receiver.UserKeyGen(o.key.Pub, rng); err != nil {
		o.close()
		return nil, err
	}
	m.order = rng.Perm(len(o.labels))
	m.http, m.tt = newHTTPClient(t)
	return m, nil
}

func (m *message) run(cfg config, t *tracer, res *result) (*meter, error) {
	m.base = counters(m.reg)
	return closedLoop{clients: 1, op: m.op}.run(cfg, t, res)
}

func (m *message) op(_ int, o *opCtx) (func(), error) {
	label := m.labels[m.order[m.next%len(m.order)]]
	m.next++
	msg := make([]byte, messageBytes)
	m.rng.Read(msg)
	spub := m.key.Pub

	var err error
	var ct *core.CCACiphertext
	o.phase("op.seal", func(seal int32) {
		o.layer(seal, "core.encrypt_cca", func() {
			ct, err = m.sender.EncryptCCA(m.rng, spub, m.user.Pub, label, msg)
		})
	})
	if err != nil {
		return nil, fmt.Errorf("seal: %w", err)
	}

	var upd core.KeyUpdate
	o.phase("op.open", func(open int32) {
		var body, plain []byte
		m.tt.under(o, open) // the round trip is timed in the transport
		body, err = getBody(m.http, m.url+"/v1/update/"+label)
		if err != nil {
			return
		}
		o.layer(open, "wire.decode_update", func() { upd, err = m.codec.UnmarshalKeyUpdate(body) })
		if err != nil {
			return
		}
		ok := false
		o.layer(open, "core.verify_update", func() { ok = m.receiver.VerifyUpdate(spub, upd) })
		if !ok || upd.Label != label {
			err = fmt.Errorf("update for %s fails verification", label)
			return
		}
		o.layer(open, "core.decrypt_cca", func() { plain, err = m.receiver.DecryptCCA(spub, m.user, upd, ct) })
		if err == nil && !bytes.Equal(plain, msg) {
			err = fmt.Errorf("decrypted plaintext differs for %s", label)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	if !o.traced() {
		return nil, nil
	}
	return func() { probeBackend(o, m.set, core.TimeDomain, []byte(label), spub.SG, upd.Point, m.user.A) }, nil
}

func (m *message) report(cfg config, st traceStats, mt *meter, res *result) {
	if !cfg.trace {
		return
	}
	reportSchemeCounters(res, m.base, counters(m.reg), st.allOps, cfg.scale == 1)
	probeWire(res, m.origin)
}

func (m *message) close() {
	m.http.CloseIdleConnections()
	m.origin.close()
}

// getBody is one GET expecting 200.
func getBody(hc *http.Client, url string) ([]byte, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

// reportSchemeCounters turns the obs counters of the instrumented
// schemes into per-operation counts. cold says the workload only ever
// hashes fresh labels (at full scale): any label-point cache hit then
// means the workload is not the one it claims to be, and the run is
// invalid.
func reportSchemeCounters(res *result, before, after map[string]int64, ops int, cold bool) {
	delta := func(name string) float64 { return float64(after[name] - before[name]) }
	hits, misses := delta("core.labelpoint_cache_hit"), delta("core.labelpoint_cache_miss")
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	res.set("core.pairings_per_op", delta("core.pairings")/float64(ops), "count", ops)
	res.set("core.labelpoint_cache_hit_ratio", ratio, "ratio", int(hits+misses))
	if cold && ratio != 0 {
		res.invalid("label-point cache hit ratio %.4f on a workload of cold labels", ratio)
	}
}
