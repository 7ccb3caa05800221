// Command trethreshold operates the k-of-n threshold time-authority
// extension: deal shares, export a share as an ordinary treserver key
// (a member is a plain time server: treserver -key shard1.key), issue
// partial updates offline, and combine partials into the group's key
// update.
//
//	trethreshold deal    -preset SS512 -k 3 -n 5 -out-dir ./authority
//	trethreshold export-server-key -preset SS512 -share authority/share-1.key -out shard1.key
//	trethreshold partial -preset SS512 -share authority/share-2.key \
//	                     -label 2027-01-01T00:00:00Z -out p2.bin
//	trethreshold combine -preset SS512 -group authority/group.pub -k 3 \
//	                     -in p1.bin -in p2.bin -in p3.bin -out update.bin
//
// The group public key written by `deal` is an ordinary TRE server
// public key: receivers use it with trectl/the library unchanged, and
// the combined update is byte-identical to a single-server one. `deal`
// also writes one member-N.pub per share — the ordinary server public
// key a member's treserver answers under, which clients pin with
// `trectl decrypt -member N=url=member-N.pub`.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"timedrelease/internal/keyfile"
	"timedrelease/internal/threshold"
	"timedrelease/tre"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "trethreshold:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return usage()
	}
	switch args[0] {
	case "deal":
		return deal(args[1:])
	case "export-server-key":
		return exportServerKey(args[1:])
	case "partial":
		return partial(args[1:])
	case "combine":
		return combine(args[1:])
	default:
		return usage()
	}
}

func usage() error {
	fmt.Fprintln(os.Stderr, `usage: trethreshold <deal|export-server-key|partial|combine> [flags]
run a subcommand with -h for its flags`)
	return fmt.Errorf("unknown or missing subcommand")
}

func deal(args []string) error {
	fs := flag.NewFlagSet("deal", flag.ContinueOnError)
	preset := fs.String("preset", "SS512", "parameter preset")
	k := fs.Int("k", 3, "threshold")
	n := fs.Int("n", 5, "number of shares")
	outDir := fs.String("out-dir", ".", "directory for share files and group.pub")
	if err := fs.Parse(args); err != nil {
		return err
	}
	set, err := tre.Preset(*preset)
	if err != nil {
		return err
	}
	setup, err := tre.ThresholdDeal(set, nil, *k, *n)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o700); err != nil {
		return err
	}
	for _, share := range setup.Shares {
		path := filepath.Join(*outDir, fmt.Sprintf("share-%d.key", share.Index))
		if err := keyfile.SaveShare(path, set, setup, share); err != nil {
			return err
		}
	}
	codec := tre.NewCodec(set)
	// Each member's treserver answers under its own ordinary server key;
	// clients pin these per-member keys in quorum mode.
	for _, share := range setup.Shares {
		memberPub := tre.ShardServerKey(set, share).Pub
		path := filepath.Join(*outDir, fmt.Sprintf("member-%d.pub", share.Index))
		if err := keyfile.SavePublic(path, codec.MarshalServerPublicKey(memberPub)); err != nil {
			return err
		}
	}
	groupPath := filepath.Join(*outDir, "group.pub")
	if err := keyfile.SavePublic(groupPath, codec.MarshalServerPublicKey(setup.GroupPub)); err != nil {
		return err
	}
	fmt.Printf("dealt %d-of-%d: %d share files, %d member-N.pub files + %s\n", *k, *n, *n, *n, groupPath)
	fmt.Println("distribute each share to one operator over a secure channel, then DELETE the local copies")
	return nil
}

func exportServerKey(args []string) error {
	fs := flag.NewFlagSet("export-server-key", flag.ContinueOnError)
	preset := fs.String("preset", "SS512", "parameter preset")
	sharePath := fs.String("share", "", "share file")
	out := fs.String("out", "", "treserver key file to write")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sharePath == "" || *out == "" {
		return fmt.Errorf("-share and -out are required")
	}
	set, err := tre.Preset(*preset)
	if err != nil {
		return err
	}
	loaded, err := keyfile.LoadShare(*sharePath, set)
	if err != nil {
		return err
	}
	key := tre.ShardServerKey(set, loaded.Share)
	if err := keyfile.SaveServerKey(*out, set, key); err != nil {
		return err
	}
	fmt.Printf("share %d exported; run: treserver -preset %s -key %s\n", loaded.Share.Index, *preset, *out)
	return nil
}

func partial(args []string) error {
	fs := flag.NewFlagSet("partial", flag.ContinueOnError)
	preset := fs.String("preset", "SS512", "parameter preset")
	sharePath := fs.String("share", "", "share file")
	label := fs.String("label", "", "release label")
	out := fs.String("out", "", "partial-update file (default stdout hex)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sharePath == "" || *label == "" {
		return fmt.Errorf("-share and -label are required")
	}
	set, err := tre.Preset(*preset)
	if err != nil {
		return err
	}
	loaded, err := keyfile.LoadShare(*sharePath, set)
	if err != nil {
		return err
	}
	pu := tre.IssuePartialUpdate(set, loaded.Share, *label)
	encoded := threshold.MarshalPartial(set, pu)
	if *out == "" {
		fmt.Printf("%x\n", encoded)
		return nil
	}
	return os.WriteFile(*out, encoded, 0o644)
}

func combine(args []string) error {
	fs := flag.NewFlagSet("combine", flag.ContinueOnError)
	preset := fs.String("preset", "SS512", "parameter preset")
	groupPath := fs.String("group", "group.pub", "group public key file")
	k := fs.Int("k", 0, "threshold")
	out := fs.String("out", "", "combined-update file (default stdout hex)")
	var ins stringList
	fs.Var(&ins, "in", "partial-update file (repeat for each)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *k < 1 || len(ins) == 0 {
		return fmt.Errorf("-k and at least one -in are required")
	}
	set, err := tre.Preset(*preset)
	if err != nil {
		return err
	}
	codec := tre.NewCodec(set)
	rawGroup, err := keyfile.LoadPublic(*groupPath)
	if err != nil {
		return err
	}
	groupPub, err := codec.UnmarshalServerPublicKey(rawGroup)
	if err != nil {
		return err
	}
	var partials []tre.PartialUpdate
	for _, path := range ins {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pu, err := threshold.UnmarshalPartial(set, raw)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		partials = append(partials, pu)
	}
	upd, err := tre.CombinePartialUpdates(set, groupPub, partials, *k)
	if err != nil {
		return err
	}
	encoded := codec.MarshalKeyUpdate(upd)
	fmt.Fprintf(os.Stderr, "combined update for %s verifies against the group key\n", upd.Label)
	if *out == "" {
		fmt.Printf("%x\n", encoded)
		return nil
	}
	return os.WriteFile(*out, encoded, 0o644)
}

// stringList is a repeatable -in flag.
type stringList []string

func (s *stringList) String() string { return fmt.Sprint(*s) }

func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}
