package wire_test

import (
	"bytes"
	"encoding/hex"
	"testing"

	"timedrelease/internal/wire"
)

// Golden vectors pin the wire format: these constants were produced by
// TestPrintGoldenVectors (run with -golden-print) from fixed key scalars
// and a constant-byte "rng" over the Test160 preset, plus BLS12-381 rows
// (server key, key update, blind-token request and token) from fixed
// scalars and a seeded rng. Any change to point
// compression, field widths, framing, hash domains or the FO transform
// breaks these tests — which is the point: the wire format is a
// compatibility promise, and format changes must be deliberate (bump
// wire.Version, regenerate, and note it in the commit).
var golden = map[string]string{
	"server public key":          "026919c2735c2738299e1a8e09a31cde73933c60220380791239d962617495bbf34f7fcd3f18da55d463",
	"user public key":            "03ca22a243e0bc54a24a87d46bbb80d73c46905b7f03835173651637c042fbb13d95a65ff55f833c9dab",
	"key update":                 "0014323032362d30372d30355431323a30303a30305a0222744e6c8a176c5d394c4966af2bfa7c8e80c883",
	"sealed envelope":            "01020014323032362d30372d30355431323a30303a30305a0000004903b511344877b4fe575737175bab60921ea15b02c00020bb54679b12292d2ffbadae9b90c61c26e9b12ecd6a9bb19e95460701be4ff7350000000ea0d9db1a03298beeb6bf894f572c",
	"idtre cca ciphertext":       "027216667765aa7cf2c5cb74e6e900fab0af067258002056556635d6c8218e0eda84689778eb1f3b29e27e59b9d813b93a26cdb56893490000000e20dce1a869423c6b9d8040ac9d99",
	"idtre split ciphertext":     "02ad48e094109b8f98b1e3da125be3afa69bcee1f00000000ef42748291ef93ddf736f47607e81",
	"policy cca ciphertext":      "001f626f617264206f6b2026206175646974206f6b207c20656d657267656e6379000202c6e49de677c186a480bed0baec026022176c03b80020aadcafcfeb64425e1c77fc9439990170e76bd14d550c75581b9747a6156877bb037632abc4e05490e3763e8488a6b3b0ad25c9c3f60020c06688932dcf10ebcd2e389fe4de68e7c709720e76a88c996e7b33a2df5a49f30000000e963d02088371f2c0df8208fafdfb",
	"multiserver ciphertext":     "000202ad48e094109b8f98b1e3da125be3afa69bcee1f0030a530d454a9d31544279f3992cb591dd3e2e3b1a0000000ebf7bd527eca3c376d13209f843d3",
	"hibe node key":              "00030004323032360002303700023035033fcc25f8b418017a4e1a32269fa1f9f04b106ec768222d3e9106191715010002024f77c85e6e1f6a434f1517290a0df9ad813d802e036f2f4c6556e418d9734682c30c50bb7e3bf1ec32",
	"hibe ciphertext":            "02ad48e094109b8f98b1e3da125be3afa69bcee1f000020331c4cc530e06c8d89ae04fab3f398e68fec4c69e02b0d8c2cd7234b4fb6a421ef86bac6aa6ea8e3b690000000e46377d585ab9b4891d52abe0cab5",
	"bfibe ciphertext":           "02ad48e094109b8f98b1e3da125be3afa69bcee1f00000000e18faf2675748543422867ce37bba",
	"bls12381 server public key": "97f1d3a73197d7942695638c4fa9ac0fc3688c4f9774b905a14e3a3f171bac586c55e83ff97a1aeffb3af00adb22c6bb820ad0f24a42c82129fef2a137f7b7c230c2aaffb78ffd82f6cbdcd2bfbf3560435a35c62d3ff66ad696b78f8c6c6c68b95430fc3a9c714f47096c7f1a4f894a99fbfbb28af4bceb9b9b4c507bcc3348a42f6eab72e66e855d68063b386315ac0e2c1d2736f8f721cd5ed79528c704e9c3073baa5f42f5e300b7591d7f71ead93d6bd730abe44c35a85b5592c89f6455",
	"bls12381 key update":        "0014323032362d30372d30355431323a30303a30305aa007b3891dd1379ed81a3b6c85a4beb0026e490b6295f11560d42ac8def596eca2cec8f4b5ca81ed22a99ae62fbba9171643e1884b13b25633a863cf5a6e9803dfc86e1c18f5daa9cff1f3b0c9dea916051878a4d7bfad5913fccf54d97d9a59",
	"bls12381 token request":     "0002a6ec526d96544034f58918422859586c55dda847b69f268ea6c8b31a0f5f20cb10ca20022e9ef486851dc0f8dd47b38401784a292c92bb92332656074c376979b49d65661ee61fe3e3a17047640c93aa93d6cc22eac8fc2b510f3d900fba63a5a8377a9f5118dbc3aa45450b20b41e1056ea8e7506b074f9294dc5c46c1488c5286575e9c89d9922eccc2ff983d59e3f16c9a951b830a44670f2652cd41c6d44e9d483944f061fa8b18f7c3e699b775777424b421f63f3695101ec28570af9b0",
	"bls12381 token":             "00207dd620ecae91083cebcae9b7ee8dc6b77414c0d7cb6151d871eeb545eef949628e057a89ed6a19dc07b68ce0d9a292c12b91db39bdd7dab423f16e66c3d27ab816e19bd26f39ae86816b497a7a58c75716b2fa044f16ed2a0e2b5712eb55eb1066ae2a113a0a657b5a49324339bc9b2b4fb028e65878b9fd18e15ecc7871d859",
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
	codec, sc, server, user := wire.GoldenFixtures(t, "Test160")
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
