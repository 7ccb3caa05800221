// Sealed-bid auction — the paper's §1 motivating example, run end-to-end
// over a real HTTP time server on localhost.
//
// Bidders seal their bids to the bid-opening epoch and submit the
// ciphertexts to the auctioneer IMMEDIATELY — so network delay cannot
// disadvantage anyone — but the auctioneer (who holds the decryption
// key) cannot open any bid until the time server, which knows nothing of
// the auction, publishes the epoch's key update. No government agent can
// leak a bid early, because before the update nobody on earth can read
// it.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"timedrelease/tre"
)

func main() {
	set := tre.MustPreset("Test160") // fast demo parameters
	scheme := tre.NewScheme(set)
	sched := tre.MustSchedule(time.Second)

	// --- The passive time server, oblivious to the auction -------------
	serverKey, err := scheme.ServerKeyGen(nil)
	if err != nil {
		log.Fatal(err)
	}
	ts := tre.NewTimeServer(set, serverKey, sched)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: ts.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		if err := ts.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
			log.Println("time server:", err)
		}
	}()
	baseURL := "http://" + ln.Addr().String()
	fmt.Println("time server running at", baseURL, "— it will never learn an auction exists")

	// --- The auctioneer -------------------------------------------------
	auctioneer, err := scheme.UserKeyGen(serverKey.Pub, nil)
	if err != nil {
		log.Fatal(err)
	}
	// Bids open two epochs from now.
	bidOpening := sched.LabelAt(sched.Index(time.Now()) + 2)
	fmt.Println("bids will open at", bidOpening)

	// --- Bidders seal and submit immediately ----------------------------
	bids := map[string]int{"ACME Corp": 1_250_000, "Globex": 1_190_000, "Initech": 1_320_000}
	sealed := map[string]*tre.CCACiphertext{}
	for bidder, amount := range bids {
		// Each bidder verifies the auctioneer's key is honestly bound to
		// the time server (done inside EncryptCCA) and seals the bid.
		ct, err := scheme.EncryptCCA(nil, serverKey.Pub, auctioneer.Pub,
			bidOpening, []byte(fmt.Sprintf("%s bids $%d", bidder, amount)))
		if err != nil {
			log.Fatal(err)
		}
		sealed[bidder] = ct
		fmt.Printf("  %s submitted a sealed bid (%d bytes, opens %s)\n", bidder, len(ct.V)+len(ct.W), bidOpening)
	}

	// --- The auctioneer tries to peek early ------------------------------
	client := tre.NewTimeClient(baseURL, set, serverKey.Pub)
	if _, err := client.Update(ctx, bidOpening); errors.Is(err, tre.ErrNotYetPublished) {
		fmt.Println("auctioneer tried to peek: update not published — bids stay sealed")
	}

	// --- Bid opening ------------------------------------------------------
	fmt.Println("waiting for the bid-opening epoch ...")
	upd, err := client.WaitForRelease(ctx, bidOpening)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("update", upd.Label, "released; opening bids:")
	for bidder, ct := range sealed {
		plain, err := scheme.DecryptCCA(serverKey.Pub, auctioneer, upd, ct)
		if err != nil {
			log.Fatalf("opening %s's bid: %v", bidder, err)
		}
		fmt.Printf("  %s\n", plain)
	}
	fmt.Println("server served", ts.Served(), "requests and published", ts.Published(), "updates — independent of the number of bidders")
}
