package wire

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// Golden vectors pin the wire format: these constants were produced by
// TestPrintGoldenVectors (run with -golden-print) from fixed key scalars
// and a constant-byte "rng" over the Test160 preset. Any change to point
// compression, field widths, framing, hash domains or the FO transform
// breaks these tests — which is the point: the wire format is a
// compatibility promise, and format changes must be deliberate (bump
// wire.Version, regenerate, and note it in the commit).
var golden = map[string]string{
	"server public key":      "026919c2735c2738299e1a8e09a31cde73933c60220380791239d962617495bbf34f7fcd3f18da55d463",
	"user public key":        "03ca22a243e0bc54a24a87d46bbb80d73c46905b7f03835173651637c042fbb13d95a65ff55f833c9dab",
	"key update":             "0014323032362d30372d30355431323a30303a30305a0222744e6c8a176c5d394c4966af2bfa7c8e80c883",
	"sealed envelope":        "01020014323032362d30372d30355431323a30303a30305a0000004903b511344877b4fe575737175bab60921ea15b02c00020bb54679b12292d2ffbadae9b90c61c26e9b12ecd6a9bb19e95460701be4ff7350000000ea0d9db1a03298beeb6bf894f572c",
	"idtre cca ciphertext":   "027216667765aa7cf2c5cb74e6e900fab0af067258002056556635d6c8218e0eda84689778eb1f3b29e27e59b9d813b93a26cdb56893490000000e20dce1a869423c6b9d8040ac9d99",
	"idtre split ciphertext": "02ad48e094109b8f98b1e3da125be3afa69bcee1f00000000ef42748291ef93ddf736f47607e81",
	"policy cca ciphertext":  "001f626f617264206f6b2026206175646974206f6b207c20656d657267656e6379000202c6e49de677c186a480bed0baec026022176c03b80020aadcafcfeb64425e1c77fc9439990170e76bd14d550c75581b9747a6156877bb037632abc4e05490e3763e8488a6b3b0ad25c9c3f60020c06688932dcf10ebcd2e389fe4de68e7c709720e76a88c996e7b33a2df5a49f30000000e963d02088371f2c0df8208fafdfb",
	"multiserver ciphertext": "000202ad48e094109b8f98b1e3da125be3afa69bcee1f0030a530d454a9d31544279f3992cb591dd3e2e3b1a0000000ebf7bd527eca3c376d13209f843d3",
	"hibe node key":          "00030004323032360002303700023035033fcc25f8b418017a4e1a32269fa1f9f04b106ec768222d3e9106191715010002024f77c85e6e1f6a434f1517290a0df9ad813d802e036f2f4c6556e418d9734682c30c50bb7e3bf1ec32",
	"hibe ciphertext":        "02ad48e094109b8f98b1e3da125be3afa69bcee1f000020331c4cc530e06c8d89ae04fab3f398e68fec4c69e02b0d8c2cd7234b4fb6a421ef86bac6aa6ea8e3b690000000e46377d585ab9b4891d52abe0cab5",
	"bfibe ciphertext":       "02ad48e094109b8f98b1e3da125be3afa69bcee1f00000000e18faf2675748543422867ce37bba",
}

func TestGoldenVectorsMatch(t *testing.T) {
	for _, v := range goldenObjects(t) {
		want, ok := golden[v.name]
		if !ok {
			t.Errorf("%s: no recorded vector", v.name)
			continue
		}
		if !bytes.Equal(v.enc, mustHex(t, want)) {
			t.Errorf("%s: wire format changed\n got %x\nwant %s", v.name, v.enc, want)
		}
	}
}

func TestGoldenEnvelopeStillDecrypts(t *testing.T) {
	// The recorded envelope must decode and decrypt with the fixed keys —
	// i.e. today's code reads yesterday's ciphertexts.
	codec, sc, server, user := goldenFixtures(t)
	env, err := codec.UnmarshalEnvelope(mustHex(t, golden["sealed envelope"]))
	if err != nil {
		t.Fatal(err)
	}
	ct, err := codec.UnmarshalCCACiphertext(env.Payload)
	if err != nil {
		t.Fatal(err)
	}
	upd := sc.IssueUpdate(server, env.Label)
	got, err := sc.DecryptCCA(server.Pub, user, upd, ct)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "golden message" {
		t.Fatalf("golden plaintext = %q", got)
	}
}

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
