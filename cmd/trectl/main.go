// Command trectl is the user-side CLI: key generation, timed-release
// encryption and decryption, and key-update retrieval — all without any
// per-message interaction with the time server.
//
//	trectl server-keygen -preset SS512 -out server.key -pub server.pub
//	trectl user-keygen   -preset SS512 -server-pub server.pub -out user.key -pub user.pub
//	trectl encrypt  -preset SS512 -server-pub server.pub -user-pub user.pub \
//	                -label 2027-01-01T00:00:00Z -in secret.txt -out sealed.tre
//	trectl update   -preset SS512 -server http://host:8440 -server-pub server.pub \
//	                -label 2027-01-01T00:00:00Z [-wait]
//	trectl decrypt  -preset SS512 -server http://host:8440 -server-pub server.pub \
//	                -key user.key -in sealed.tre -out secret.txt
//	trectl verify-user-pub -preset SS512 -server-pub server.pub -user-pub user.pub
//
// Against a token-gated server (treserver -require-tokens), fetch a
// batch of anonymous access tokens once and spend them transparently:
//
//	trectl tokens fetch -server http://host:8440 -server-pub server.pub -wallet tokens.wallet -n 32
//	trectl catchup -wallet tokens.wallet ...
//	trectl tokens verify -dir ./archive     # audit the server's spend.log
//
// Beacon (round) mode addresses a round of a round clock instead of a
// wall-clock label and writes a self-describing armored file; decrypt
// sniffs the format, and can combine a k-of-n threshold quorum instead
// of trusting one server:
//
//	trectl encrypt -round 12345 -genesis 2027-01-01T00:00:00Z -round-period 1m ...
//	trectl encrypt -duration 48h -genesis 2027-01-01T00:00:00Z -round-period 1m ...
//	trectl decrypt -k 2 -member 1=http://a:8440=member-1.pub \
//	               -member 3=http://c:8440=member-3.pub -server-pub group.pub ...
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"timedrelease/internal/keyfile"
	"timedrelease/tre"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "trectl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return usage()
	}
	switch args[0] {
	case "server-keygen":
		return serverKeygen(args[1:])
	case "user-keygen":
		return userKeygen(args[1:])
	case "encrypt":
		return encrypt(args[1:])
	case "decrypt":
		return decrypt(args[1:])
	case "update":
		return update(args[1:])
	case "verify-user-pub":
		return verifyUserPub(args[1:])
	case "catchup":
		return catchup(args[1:])
	case "archive":
		return archiveCmd(args[1:])
	case "tokens":
		return tokensCmd(args[1:])
	default:
		return usage()
	}
}

func usage() error {
	fmt.Fprintln(os.Stderr, `usage: trectl <server-keygen|user-keygen|encrypt|decrypt|update|catchup|verify-user-pub|archive|tokens> [flags]
run a subcommand with -h for its flags`)
	return fmt.Errorf("unknown or missing subcommand")
}

func loadSet(preset, backendName string) (*tre.Params, *tre.Scheme, *tre.Codec, error) {
	set, err := tre.ResolvePreset(preset, backendName)
	if err != nil {
		return nil, nil, nil, err
	}
	return set, tre.NewScheme(set), tre.NewCodec(set), nil
}

func loadServerPub(codec *tre.Codec, path string) (tre.ServerPublicKey, error) {
	raw, err := keyfile.LoadPublic(path)
	if err != nil {
		return tre.ServerPublicKey{}, err
	}
	return codec.UnmarshalServerPublicKey(raw)
}

func serverKeygen(args []string) error {
	fs := flag.NewFlagSet("server-keygen", flag.ContinueOnError)
	preset := fs.String("preset", "SS512", "parameter preset")
	backendName := fs.String("backend", "", "pairing backend: symmetric (default) or bls12381")
	out := fs.String("out", "server.key", "private key file")
	pub := fs.String("pub", "server.pub", "public key file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	set, scheme, codec, err := loadSet(*preset, *backendName)
	if err != nil {
		return err
	}
	key, err := scheme.ServerKeyGen(nil)
	if err != nil {
		return err
	}
	if err := keyfile.SaveServerKey(*out, set, key); err != nil {
		return err
	}
	if err := keyfile.SavePublic(*pub, codec.MarshalServerPublicKey(key.Pub)); err != nil {
		return err
	}
	fmt.Printf("wrote %s (private) and %s (public)\n", *out, *pub)
	return nil
}

func userKeygen(args []string) error {
	fs := flag.NewFlagSet("user-keygen", flag.ContinueOnError)
	preset := fs.String("preset", "SS512", "parameter preset")
	backendName := fs.String("backend", "", "pairing backend: symmetric (default) or bls12381")
	serverPub := fs.String("server-pub", "server.pub", "time server public key")
	out := fs.String("out", "user.key", "private key file")
	pub := fs.String("pub", "user.pub", "public key file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	set, scheme, codec, err := loadSet(*preset, *backendName)
	if err != nil {
		return err
	}
	spub, err := loadServerPub(codec, *serverPub)
	if err != nil {
		return err
	}
	key, err := scheme.UserKeyGen(spub, nil)
	if err != nil {
		return err
	}
	if err := keyfile.SaveUserKey(*out, set, key); err != nil {
		return err
	}
	if err := keyfile.SavePublic(*pub, codec.MarshalUserPublicKey(key.Pub)); err != nil {
		return err
	}
	fmt.Printf("wrote %s (private) and %s (public)\n", *out, *pub)
	return nil
}

func encrypt(args []string) error {
	fs := flag.NewFlagSet("encrypt", flag.ContinueOnError)
	preset := fs.String("preset", "SS512", "parameter preset")
	backendName := fs.String("backend", "", "pairing backend: symmetric (default) or bls12381")
	serverPub := fs.String("server-pub", "server.pub", "time server (or threshold group) public key")
	userPub := fs.String("user-pub", "user.pub", "receiver public key")
	label := fs.String("label", "", "release label, e.g. 2027-01-01T00:00:00Z")
	round := fs.Int64("round", -1, "beacon round number (round mode; writes an armored file)")
	duration := fs.Duration("duration", 0, "open after this duration (round mode; writes an armored file)")
	genesis := fs.String("genesis", "", "round-0 start instant, RFC 3339 (round mode)")
	roundPeriod := fs.Duration("round-period", time.Minute, "round duration (round mode)")
	in := fs.String("in", "", "plaintext file (default stdin)")
	out := fs.String("out", "", "envelope file (default stdout)")
	hideLabel := fs.Bool("hide-label", false, "omit the release label from the envelope (release-time privacy)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	roundMode := *round >= 0 || *duration > 0
	switch {
	case roundMode && *label != "":
		return fmt.Errorf("-label is exclusive with -round/-duration")
	case *round >= 0 && *duration > 0:
		return fmt.Errorf("-round and -duration are mutually exclusive")
	case !roundMode && *label == "":
		return fmt.Errorf("one of -label, -round or -duration is required")
	}
	var clock tre.RoundClock
	if roundMode {
		if *genesis == "" {
			return fmt.Errorf("-genesis is required in round mode")
		}
		genesisT, err := time.Parse(time.RFC3339Nano, *genesis)
		if err != nil {
			return fmt.Errorf("bad -genesis: %w", err)
		}
		if clock, err = tre.NewRoundClock(*roundPeriod, genesisT); err != nil {
			return err
		}
	}
	_, scheme, codec, err := loadSet(*preset, *backendName)
	if err != nil {
		return err
	}
	spub, err := loadServerPub(codec, *serverPub)
	if err != nil {
		return err
	}
	rawU, err := keyfile.LoadPublic(*userPub)
	if err != nil {
		return err
	}
	upub, err := codec.UnmarshalUserPublicKey(rawU)
	if err != nil {
		return err
	}
	msg, err := readInput(*in)
	if err != nil {
		return err
	}
	if roundMode {
		var (
			r    uint64
			file []byte
		)
		if *round >= 0 {
			r = uint64(*round)
			file, err = tre.EncryptToRound(nil, scheme, clock, spub, upub, r, msg)
		} else {
			r, file, err = tre.EncryptToDuration(nil, scheme, clock, spub, upub, time.Now(), *duration, msg)
		}
		if err != nil {
			return err
		}
		lbl, _ := clock.Label(r)
		fmt.Fprintf(os.Stderr, "encrypted to round %d (opens at %s)\n", r, lbl)
		return writeOutput(*out, file)
	}
	ct, err := scheme.EncryptCCA(nil, spub, upub, *label, msg)
	if err != nil {
		return err
	}
	envelopeLabel := *label
	if *hideLabel {
		envelopeLabel = ""
	}
	return writeOutput(*out, codec.SealCCA(envelopeLabel, ct))
}

// memberFlag collects repeatable -member index=url=pubfile values.
type memberFlag []string

func (m *memberFlag) String() string { return strings.Join(*m, ",") }
func (m *memberFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// parseMembers turns -member values into quorum shards, each pinned to
// its own member public key.
func parseMembers(set *tre.Params, codec *tre.Codec, members []string) ([]tre.Shard, error) {
	shards := make([]tre.Shard, 0, len(members))
	for _, m := range members {
		parts := strings.SplitN(m, "=", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("bad -member %q (want index=url=pubfile)", m)
		}
		idx, err := strconv.Atoi(parts[0])
		if err != nil || idx < 1 {
			return nil, fmt.Errorf("bad -member index in %q", m)
		}
		raw, err := keyfile.LoadPublic(parts[2])
		if err != nil {
			return nil, fmt.Errorf("member %d public key: %w", idx, err)
		}
		mpub, err := codec.UnmarshalServerPublicKey(raw)
		if err != nil {
			return nil, fmt.Errorf("member %d public key: %w", idx, err)
		}
		shards = append(shards, tre.Shard{Index: idx, Client: tre.NewTimeClient(parts[1], set, mpub)})
	}
	return shards, nil
}

func decrypt(args []string) error {
	fs := flag.NewFlagSet("decrypt", flag.ContinueOnError)
	preset := fs.String("preset", "SS512", "parameter preset")
	backendName := fs.String("backend", "", "pairing backend: symmetric (default) or bls12381")
	serverURL := fs.String("server", "", "time server base URL")
	serverPub := fs.String("server-pub", "server.pub", "time server (or threshold group) public key (pinned)")
	keyPath := fs.String("key", "user.key", "receiver private key")
	label := fs.String("label", "", "release label (required if hidden in the envelope)")
	in := fs.String("in", "", "envelope or armored file (default stdin)")
	out := fs.String("out", "", "plaintext file (default stdout)")
	wait := fs.Bool("wait", false, "wait for the release instead of failing when early")
	kFlag := fs.Int("k", 0, "quorum size (threshold mode; requires -member entries)")
	var members memberFlag
	fs.Var(&members, "member", "threshold member as index=url=pubfile (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	set, scheme, codec, err := loadSet(*preset, *backendName)
	if err != nil {
		return err
	}
	spub, err := loadServerPub(codec, *serverPub)
	if err != nil {
		return err
	}
	key, err := keyfile.LoadUserKey(*keyPath, set)
	if err != nil {
		return err
	}
	raw, err := readInput(*in)
	if err != nil {
		return err
	}

	var (
		ct       *tre.CCACiphertext
		useLabel string
	)
	if tre.IsArmored(raw) {
		rc, err := tre.DecodeArmored(scheme, raw)
		if err != nil {
			return err
		}
		if *label != "" && *label != rc.Label {
			return fmt.Errorf("-label %q disagrees with the armored round %d (label %q)", *label, rc.Round, rc.Label)
		}
		ct, useLabel = rc.CCA, rc.Label
		fmt.Fprintf(os.Stderr, "armored round %d, opens at %s\n", rc.Round, rc.Label)
	} else {
		env, err := codec.UnmarshalEnvelope(raw)
		if err != nil {
			return err
		}
		if env.Kind != tre.KindCCA {
			return fmt.Errorf("envelope kind %s not supported by this tool (use the library API)", env.Kind)
		}
		if ct, err = codec.UnmarshalCCACiphertext(env.Payload); err != nil {
			return err
		}
		useLabel = env.Label
		if *label != "" {
			useLabel = *label
		}
		if useLabel == "" {
			return fmt.Errorf("the envelope withholds its release label; pass -label")
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 24*time.Hour)
	defer cancel()
	var upd tre.KeyUpdate
	switch {
	case len(members) > 0:
		// Threshold mode: -server-pub is the GROUP key; each member is
		// an ordinary time server pinned to its own share key.
		if *kFlag < 1 || *kFlag > len(members) {
			return fmt.Errorf("threshold mode needs 1 ≤ -k ≤ #members, got k=%d members=%d", *kFlag, len(members))
		}
		shards, err := parseMembers(set, codec, members)
		if err != nil {
			return err
		}
		qc := &tre.QuorumClient{Set: set, GroupPub: spub, K: *kFlag, Shards: shards}
		if *wait {
			upd, err = qc.WaitForRelease(ctx, useLabel)
		} else {
			upd, err = qc.Update(ctx, useLabel)
		}
		if err != nil {
			return err
		}
	case *serverURL != "":
		client := tre.NewTimeClient(*serverURL, set, spub)
		if *wait {
			upd, err = client.WaitForRelease(ctx, useLabel)
		} else {
			upd, err = client.Update(ctx, useLabel)
		}
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("-server (single server) or -member/-k (threshold quorum) is required")
	}

	msg, err := scheme.DecryptCCA(spub, key, upd, ct)
	if err != nil {
		return err
	}
	return writeOutput(*out, msg)
}

func update(args []string) error {
	fs := flag.NewFlagSet("update", flag.ContinueOnError)
	preset := fs.String("preset", "SS512", "parameter preset")
	backendName := fs.String("backend", "", "pairing backend: symmetric (default) or bls12381")
	serverURL := fs.String("server", "", "time server base URL")
	serverPub := fs.String("server-pub", "server.pub", "time server public key (pinned)")
	label := fs.String("label", "", "release label")
	wait := fs.Bool("wait", false, "wait until published")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *serverURL == "" || *label == "" {
		return fmt.Errorf("-server and -label are required")
	}
	set, _, codec, err := loadSet(*preset, *backendName)
	if err != nil {
		return err
	}
	spub, err := loadServerPub(codec, *serverPub)
	if err != nil {
		return err
	}
	client := tre.NewTimeClient(*serverURL, set, spub)
	ctx, cancel := context.WithTimeout(context.Background(), 24*time.Hour)
	defer cancel()
	var upd tre.KeyUpdate
	if *wait {
		upd, err = client.WaitForRelease(ctx, *label)
	} else {
		upd, err = client.Update(ctx, *label)
	}
	if err != nil {
		return err
	}
	fmt.Printf("update %s verified: %x\n", upd.Label, codec.MarshalKeyUpdate(upd))
	return nil
}

func verifyUserPub(args []string) error {
	fs := flag.NewFlagSet("verify-user-pub", flag.ContinueOnError)
	preset := fs.String("preset", "SS512", "parameter preset")
	backendName := fs.String("backend", "", "pairing backend: symmetric (default) or bls12381")
	serverPub := fs.String("server-pub", "server.pub", "time server public key")
	userPub := fs.String("user-pub", "user.pub", "receiver public key to check")
	if err := fs.Parse(args); err != nil {
		return err
	}
	_, scheme, codec, err := loadSet(*preset, *backendName)
	if err != nil {
		return err
	}
	spub, err := loadServerPub(codec, *serverPub)
	if err != nil {
		return err
	}
	rawU, err := keyfile.LoadPublic(*userPub)
	if err != nil {
		return err
	}
	upub, err := codec.UnmarshalUserPublicKey(rawU)
	if err != nil {
		return err
	}
	if !scheme.VerifyUserPublicKey(spub, upub) {
		return fmt.Errorf("public key FAILED the well-formedness check ê(aG,sG)=ê(G,asG)")
	}
	fmt.Println("ok: public key is well-formed for this time server")
	return nil
}

func readInput(path string) ([]byte, error) {
	if path == "" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

func writeOutput(path string, data []byte) error {
	if path == "" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// catchup fetches and batch-verifies every update in a label range —
// the "I was offline" recovery flow.
func catchup(args []string) error {
	fs := flag.NewFlagSet("catchup", flag.ContinueOnError)
	preset := fs.String("preset", "SS512", "parameter preset")
	backendName := fs.String("backend", "", "pairing backend: symmetric (default) or bls12381")
	serverURL := fs.String("server", "", "time server base URL")
	serverPub := fs.String("server-pub", "server.pub", "time server public key (pinned)")
	from := fs.String("from", "", "first label (RFC 3339, on the server's grid)")
	to := fs.String("to", "", "fetch labels strictly before this instant (RFC 3339)")
	granularity := fs.Duration("granularity", time.Minute, "server epoch width")
	limit := fs.Int("limit", 10000, "maximum labels to fetch")
	wallet := fs.String("wallet", "", "token wallet file for a gated server (see trectl tokens fetch)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *serverURL == "" || *from == "" || *to == "" {
		return fmt.Errorf("-server, -from and -to are required")
	}
	set, _, codec, err := loadSet(*preset, *backendName)
	if err != nil {
		return err
	}
	spub, err := loadServerPub(codec, *serverPub)
	if err != nil {
		return err
	}
	sched, err := tre.NewSchedule(*granularity)
	if err != nil {
		return err
	}
	fromT, err := sched.ParseLabel(*from)
	if err != nil {
		return err
	}
	toT, err := time.Parse(time.RFC3339Nano, *to)
	if err != nil {
		return fmt.Errorf("bad -to: %w", err)
	}
	labels := sched.LabelsBetween(fromT, toT, *limit)
	if len(labels) == 0 {
		return fmt.Errorf("no labels in [%s, %s)", *from, *to)
	}
	reg := tre.NewMetrics()
	opts := []tre.TimeClientOption{tre.WithClientMetrics(reg)}
	if *wallet != "" {
		w, err := tre.OpenTokenWallet(*wallet, set)
		if err != nil {
			return err
		}
		opts = append(opts, tre.WithTokenWallet(w))
	}
	client := tre.NewTimeClient(*serverURL, set, spub, opts...)
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	start := time.Now()
	ups, err := client.CatchUp(ctx, labels)
	elapsed := time.Since(start)
	// A degraded catch-up still delivered a verified subset: print what
	// we have, report exactly what is missing, and exit non-zero so
	// scripts know to come back for the rest.
	var partial *tre.PartialError
	if err != nil && !errors.As(err, &partial) {
		return err
	}
	for _, u := range ups {
		fmt.Printf("%s %x\n", u.Label, codec.MarshalKeyUpdate(u))
	}
	// Pairing work is the cost the passive-server design pushes to this
	// edge; the counters show which path paid it (one blinded batch
	// equation per range page, or one over the per-label fetches).
	s := reg.Snapshot()
	how := fmt.Sprintf("%d pairings, %d range page(s), %d batch(es), %d fallback(s), %v",
		s.Counters["core.pairings"], s.Counters["client.catchup_range_pages"],
		s.Counters["client.catchup_batches"], s.Counters["client.catchup_fallback"],
		elapsed.Round(time.Millisecond))
	if partial != nil {
		fmt.Fprintf(os.Stderr, "caught up %d/%d updates (%s); %d missing:\n",
			len(ups), len(labels), how, len(partial.Missing))
		for _, l := range partial.Missing {
			fmt.Fprintf(os.Stderr, "  %s: %v\n", l, partial.Causes[l])
		}
		return fmt.Errorf("degraded catch-up: %d label(s) missing", len(partial.Missing))
	}
	fmt.Fprintf(os.Stderr, "caught up %d updates (%s)\n", len(ups), how)
	return nil
}

// archiveCmd dispatches the archive operator subcommands.
func archiveCmd(args []string) error {
	if len(args) == 0 || args[0] != "verify" {
		fmt.Fprintln(os.Stderr, `usage: trectl archive verify -dir DIR [-preset P] [-server-pub server.pub]`)
		return fmt.Errorf("unknown or missing archive subcommand")
	}
	return archiveVerify(args[1:])
}

// archiveVerify replays an update-log directory offline — without
// touching it — and reports every torn or invalid record, so operators
// and CI can audit a server's archive before (or instead of) letting a
// restart repair it. Structural checks (framing + per-record checksum)
// always run; with -server-pub every record is additionally re-verified
// against ê(G, I_T) = ê(sG, H1(T)). Any damage exits non-zero.
func archiveVerify(args []string) error {
	fs := flag.NewFlagSet("archive verify", flag.ContinueOnError)
	preset := fs.String("preset", "SS512", "parameter preset")
	backendName := fs.String("backend", "", "pairing backend: symmetric (default) or bls12381")
	dir := fs.String("dir", "", "archive directory (as given to treserver -archive-dir)")
	serverPub := fs.String("server-pub", "", "time server public key; enables cryptographic re-verification")
	quiet := fs.Bool("q", false, "print only the summary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("-dir is required")
	}
	set, scheme, codec, err := loadSet(*preset, *backendName)
	if err != nil {
		return err
	}
	_ = set
	var verify func(tre.KeyUpdate) bool
	if *serverPub != "" {
		spub, err := loadServerPub(codec, *serverPub)
		if err != nil {
			return err
		}
		verify = func(u tre.KeyUpdate) bool { return scheme.VerifyUpdate(spub, u) }
	}
	rep, err := tre.AuditArchiveDir(*dir, set, verify)
	if err != nil {
		return err
	}
	intact := 0
	for _, r := range rep.Records {
		if r.Err == nil {
			intact++
			if !*quiet {
				fmt.Printf("ok      %8d  %s\n", r.Offset, r.Label)
			}
			continue
		}
		label := r.Label
		if label == "" {
			label = "(undecodable)"
		}
		fmt.Printf("BAD     %8d  %s: %v\n", r.Offset, label, r.Err)
	}
	mode := "structural checks only (pass -server-pub to re-verify signatures)"
	if verify != nil {
		mode = "records re-verified against the server key"
	}
	fmt.Fprintf(os.Stderr, "%d intact, %d invalid, torn tail: %v (%d bytes); %s\n",
		intact, rep.Invalid, rep.Torn, rep.TornBytes, mode)
	if !rep.Clean() {
		return fmt.Errorf("archive damaged: %d invalid record(s), torn=%v", rep.Invalid, rep.Torn)
	}
	fmt.Fprintln(os.Stderr, "archive clean")
	return nil
}

// tokensCmd dispatches the anonymous-access-token subcommands.
func tokensCmd(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "fetch":
			return tokensFetch(args[1:])
		case "verify":
			return tokensVerify(args[1:])
		}
	}
	fmt.Fprintln(os.Stderr, `usage: trectl tokens fetch  -server URL -server-pub server.pub -wallet FILE [-n N]
       trectl tokens verify -dir DIR`)
	return fmt.Errorf("unknown or missing tokens subcommand")
}

// tokensFetch buys a batch of blind-signed access tokens from a gated
// server and banks them in a wallet file. The server signs blinded
// points, so nothing in the wallet is linkable to this request — see
// docs/TOKENS.md for the unblinding argument.
func tokensFetch(args []string) error {
	fs := flag.NewFlagSet("tokens fetch", flag.ContinueOnError)
	preset := fs.String("preset", "SS512", "parameter preset")
	backendName := fs.String("backend", "", "pairing backend: symmetric (default) or bls12381")
	serverURL := fs.String("server", "", "time server base URL")
	serverPub := fs.String("server-pub", "server.pub", "time server public key (pinned)")
	wallet := fs.String("wallet", "tokens.wallet", "wallet file to append into (created if missing)")
	n := fs.Int("n", 16, "tokens to fetch")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *serverURL == "" {
		return fmt.Errorf("-server is required")
	}
	set, _, codec, err := loadSet(*preset, *backendName)
	if err != nil {
		return err
	}
	spub, err := loadServerPub(codec, *serverPub)
	if err != nil {
		return err
	}
	w, err := tre.OpenTokenWallet(*wallet, set)
	if err != nil {
		return err
	}
	client := tre.NewTimeClient(*serverURL, set, spub, tre.WithTokenWallet(w))
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := client.FetchTokens(ctx, *n); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fetched %d token(s); wallet %s now holds %d\n", *n, *wallet, w.Len())
	return nil
}

// tokensVerify audits a gated server's spend.log offline — without
// modifying it — mirroring `trectl archive verify` for the
// double-spend ledger: framing and checksums are checked, duplicate
// spends and torn tails are reported, and any damage exits non-zero.
func tokensVerify(args []string) error {
	fs := flag.NewFlagSet("tokens verify", flag.ContinueOnError)
	dir := fs.String("dir", "", "server archive directory holding spend.log")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("-dir is required")
	}
	stats, err := tre.AuditTokenSpendLog(*dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%d spend record(s), %d duplicate(s), torn tail: %v (%d bytes)\n",
		stats.Records, stats.Duplicates, stats.Torn, stats.TornBytes)
	// A torn tail is survivable (the server truncates it on restart and
	// the token merely becomes spendable again) but still evidence of a
	// crash mid-redemption; duplicates should be impossible and mean
	// the log was edited or corrupted.
	if stats.Duplicates > 0 || stats.Torn {
		return fmt.Errorf("spend log damaged: %d duplicate(s), torn=%v", stats.Duplicates, stats.Torn)
	}
	fmt.Fprintln(os.Stderr, "spend log clean")
	return nil
}
