package target

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"beholder/internal/ipv6"
	"beholder/internal/netsim"
	"beholder/internal/seeds"
)

// setDigest is the SHA-256 of a set's members, 16 bytes each, in order.
func setDigest(s *ipv6.Set) string {
	h := sha256.New()
	for _, a := range s.Addrs() {
		b := a.As16()
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinSpecs are the Build specs pinned over each universe and scale: every
// zn ≤ 64 level with every synthesis, one zn > 64 level (the sorting
// path), the known control, and the prefix-only cdn list.
var pinSpecs = []Spec{
	{"tum", 32, LowByte1}, {"tum", 32, FixedIID}, {"tum", 32, RandomIID},
	{"tum", 48, LowByte1}, {"tum", 48, FixedIID}, {"tum", 48, RandomIID},
	{"tum", 64, LowByte1}, {"tum", 64, FixedIID}, {"tum", 64, RandomIID},
	{"tum", 80, RandomIID}, {"tum", 0, Known},
	{"cdn-k32", 64, FixedIID}, {"cdn-k32", 0, Known},
}

// pinDigests computes every pinned digest of one universe and scale:
// the tum, fdns_any and fiebig seed lists and each of pinSpecs built as
// Internet.TargetSet builds it (seed 5, one fresh rng per set).
func pinDigests(u *netsim.Universe, scale seeds.Scale) map[string]string {
	const seed = 5
	out := make(map[string]string)
	lists := make(map[string]seeds.List)
	for _, name := range []string{"tum", "fdns_any", "fiebig", "cdn-k32"} {
		l, err := seeds.Build(u, seed, name, scale)
		if err != nil {
			panic(err)
		}
		lists[name] = l
		if l.Addrs != nil {
			out[name] = setDigest(l.Addrs)
		}
	}
	for _, spec := range pinSpecs {
		set := Build(lists[spec.SeedName], spec, rand.New(rand.NewSource(seed)))
		out[spec.Name()] = setDigest(set.Targets)
	}
	return out
}

// targetPins were recorded from the pipeline before seed lists and target
// sets were built by merging sorted runs; they hold the output byte for
// byte to that implementation.
var targetPins = map[string]string{
	"full/0.2/cdn-k32-known":         "4807081538cbee3c45d8d0ca076d1a7e201851fa74f9e5d1256c1f0d9139bf88",
	"full/0.2/cdn-k32-z64-fixediid":  "2e8e159560ae5f5e2287ba6eb97d0cb11e0cc78ac2bd4199b8551ffcf3a3f98a",
	"full/0.2/fdns_any":              "0b79c645d5b08c07236fff1d92aab9ca2f3aef0029497ec932b351bf2684de41",
	"full/0.2/fiebig":                "2df86ac4882b223bbd547018e8b62968252e143f732ab63a72f1a50c062591e9",
	"full/0.2/tum":                   "413520b7e02a937545773f91551337eec7cded20556aefc08f9a41a5ebe8fba8",
	"full/0.2/tum-known":             "413520b7e02a937545773f91551337eec7cded20556aefc08f9a41a5ebe8fba8",
	"full/0.2/tum-z32-fixediid":      "ec559afb0b6959ba3d6308c0dd094adb8af6cc1e2361e52369e27e99026877eb",
	"full/0.2/tum-z32-lowbyte1":      "3d16594ae2467127253079631230266c9e4e38776855a7eb2566f28fea475851",
	"full/0.2/tum-z32-randomiid":     "e762e126e7e6c4275e277beea02c7154c89cf33c22fecd85bc1ada1256d764e4",
	"full/0.2/tum-z48-fixediid":      "c5c6de64e9428d3270e7a087438c5eba24895ff838f6790304f9293b47bc783b",
	"full/0.2/tum-z48-lowbyte1":      "2e080cf6a0d010a1cec1f69c612086f74d3720142b2a387e628978d3de89e12e",
	"full/0.2/tum-z48-randomiid":     "67fab781b4cdd763d7a5b1098b05c899434b64af0f0cfa3832dbb2c6f3f4c40b",
	"full/0.2/tum-z64-fixediid":      "cb2b96a2010018b0d40bc9867752381a26881f5b2a1fc83799d598dbe51f8dd8",
	"full/0.2/tum-z64-lowbyte1":      "29b6d5c3ca44d8db137553580faf591d20ec81396783efb2146dd94db7f506fb",
	"full/0.2/tum-z64-randomiid":     "617eb6beed6ed0a395ce299ea14ebaa64f74c823bbb4e8bb323896e47746e1cd",
	"full/0.2/tum-z80-randomiid":     "2341fc3fe730f21ca99446d08d35ad30be1ebbed83a7e4b56025c2254580de65",
	"full/1/cdn-k32-known":           "459b26c001fde66f54bc994d5ec5d2005ad105df70531f20ac5238e784b06186",
	"full/1/cdn-k32-z64-fixediid":    "e9128fe1c6349f9a6f6f59e0ef2111264e5216584fd8d681d6817f30de3e6270",
	"full/1/fdns_any":                "99682e0792e0c96575ccbff3c4dca3898fd59d6e44f71e530f99b0a8f283d6d0",
	"full/1/fiebig":                  "2db4709171a6b535c310384f7c2478a8756b580dffc090733120a4c54817e6a7",
	"full/1/tum":                     "ff4ba89bdd9f5f20356301028a65bc782d437c1e15cebaea20b7b8023eaecae2",
	"full/1/tum-known":               "ff4ba89bdd9f5f20356301028a65bc782d437c1e15cebaea20b7b8023eaecae2",
	"full/1/tum-z32-fixediid":        "d94ab8acd7ccaf06e58626ed21cc3b75fb2e7917a705f9422f8400e594a68cc0",
	"full/1/tum-z32-lowbyte1":        "abd20555c5ae22427b0ddec6019ccd2f2ade4bd7d331c9b724af892751f0ccf1",
	"full/1/tum-z32-randomiid":       "1e3c7e36f096c2ca2be15fce8c5bd09b835e4c8aa008e31b2db86b0a9ca682d8",
	"full/1/tum-z48-fixediid":        "5b332dd383eab4bdc53f4c3985329225f70d8a7ded73b6cb5340ef10cc4742eb",
	"full/1/tum-z48-lowbyte1":        "8f180b2371ebbae206ba7b481905917288abf5a0aef137e9562831d0348d16a6",
	"full/1/tum-z48-randomiid":       "ea49f0c4b5fc8f426c50e62697585c3873b81519af855ac4c96da37fe48189bc",
	"full/1/tum-z64-fixediid":        "a753ce24fb7fa1a2627703533f91105bef23a5c330fb58ba9c97e2761fb6962c",
	"full/1/tum-z64-lowbyte1":        "bbe4fb182dfe035b2f1e98c92eed95c3d3053e6efc66faa1cf14ad071ca246b1",
	"full/1/tum-z64-randomiid":       "fb172117b4a15bf3696522e8956f382abd74086d6e8d8adcf2064b17c5a17493",
	"full/1/tum-z80-randomiid":       "919acaca39d7757857d202ad6388958b0bf57f9c7b0ea68963589489da409d94",
	"full/3/cdn-k32-known":           "b1618a4b5a1fcc8e895cb5b83e44466762d393e9cc5a687ef9cd883ae732ccfc",
	"full/3/cdn-k32-z64-fixediid":    "09097ff62e87ce44053d6fc50f971912092b25130d04b8b054b0813f5778b5f1",
	"full/3/fdns_any":                "c671bde7acfc7bb140d51cb5e532acd7209d1447384a872417260299da6717a4",
	"full/3/fiebig":                  "0c0db330617dbd40af3a50ba7064599d4ff957f79734ece98c413c2412ca3887",
	"full/3/tum":                     "a178b32b4e75d9dc2a3b640f5ef6ef3f447dddd107c5fa97b02b2eefd9067438",
	"full/3/tum-known":               "a178b32b4e75d9dc2a3b640f5ef6ef3f447dddd107c5fa97b02b2eefd9067438",
	"full/3/tum-z32-fixediid":        "7fa7559e0ffe9c95a9cc901752854dcda14896297af9eef8ff7cd546d8f52307",
	"full/3/tum-z32-lowbyte1":        "5d240ea0252dc6764a6a783b15c1a2940bb108abdf79297f519cf9009749c392",
	"full/3/tum-z32-randomiid":       "5d266a37e8136478542433510e0ffe5ceb2beb4cc91e9e2df6a36351915478c7",
	"full/3/tum-z48-fixediid":        "7c9dcce79d99848c83a4da90e03eb341776831507b2aef51be242e269411dd81",
	"full/3/tum-z48-lowbyte1":        "8aa2654c5ce32dcfe81a8b7c9d14fb735363d5329e80bb22a091beaf21a97cf4",
	"full/3/tum-z48-randomiid":       "b37a9fa8545d5c3491928cbd7e61c203071fae262a6c8eed7ca944564a64486c",
	"full/3/tum-z64-fixediid":        "f95340483f71f43d403827b4f026abd5e6e84c4c8caf69c46d62248f006ed3a4",
	"full/3/tum-z64-lowbyte1":        "0f54991989b11b93e48ac67713c30211ee871a9cf838373de3024f6ff7e43e1a",
	"full/3/tum-z64-randomiid":       "6ae6b9db1473c566056fa15c319f2a5630dbc4b6726f64d2afa706c46580ed6e",
	"full/3/tum-z80-randomiid":       "7f3115a5942b584e5e63cf69e3ddb279511b41ec6acb2ba64d9bf88f599d63d1",
	"small/0.2/cdn-k32-known":        "2763638bca61aeeac30b53c42f7c90a69d99e99524cce2017da5e536e7c5d489",
	"small/0.2/cdn-k32-z64-fixediid": "6c41362d35f64f98c23e8ed575a710314e7a232a7c714e2b58184d78490b2d29",
	"small/0.2/fdns_any":             "98fe6cc139e06f2c89458473a2298f02a8d8057b54169174b8066cbc2bdc5e8a",
	"small/0.2/fiebig":               "d2808b9ddcb0ba72652c71d12062ccbebff2f0acf79441791861f72c5f60fd90",
	"small/0.2/tum":                  "696af82d7feb6356dc63c69556e710ba51df4a750435c8f0e8ed3681ccd37055",
	"small/0.2/tum-known":            "696af82d7feb6356dc63c69556e710ba51df4a750435c8f0e8ed3681ccd37055",
	"small/0.2/tum-z32-fixediid":     "697c1b20c4d9eaa844555faed42626e057e913728357a3fa6aa796525b16fb89",
	"small/0.2/tum-z32-lowbyte1":     "4ab3754ab5d593da7064b63ef5e707d4d4b32ef435b0d1ded24c895beb6ea5c7",
	"small/0.2/tum-z32-randomiid":    "a28ce9d33ab01845e07aa9d7f4faa734203deb5b734a5ba9551ae59c9eb0627d",
	"small/0.2/tum-z48-fixediid":     "333151ab816b020b9ec7ec7e58fee4e7ad50812b052d5a2148f463b0c80ed6d7",
	"small/0.2/tum-z48-lowbyte1":     "c9b4db7d032f0ad3332b16c41069c26776dfd8779136e27c2c28fffb7e5bdd57",
	"small/0.2/tum-z48-randomiid":    "37d8edf704ffe2538bbeba8332246e9c36f87514d8797bc6c4ebc26274598026",
	"small/0.2/tum-z64-fixediid":     "46edf530b58bc1378a3cce2f40ceffefe0faa9521b8ba12e6094f833bbc49d49",
	"small/0.2/tum-z64-lowbyte1":     "15db9839e4c617174e19f183e07ae1138474e223179243c99233ec9f263ba48f",
	"small/0.2/tum-z64-randomiid":    "4056f064f9a2388eccf3a5db87972386ca07072c81c882bbdcbbd1537478b1c0",
	"small/0.2/tum-z80-randomiid":    "9db60793c96fdf157b5d9c19133a09e311c9b34494b250ca18e15c2674d5cefd",
	"small/1/cdn-k32-known":          "6ae51333be67386303056ceed5324f88e9233450e371ee7041546cceb3e6c324",
	"small/1/cdn-k32-z64-fixediid":   "e665285be0499d4a24d9de3f1a9923d0563f2048fd7f36dbd911af5d66f71ead",
	"small/1/fdns_any":               "c109e3d7269f47b91de275d3fa9dc610d8823f8a868246d702d07c9237a2e12e",
	"small/1/fiebig":                 "8e961542e44b63195f5fb8ba3be2e0e1be157dc7301f18cb3af2afe8d98efff8",
	"small/1/tum":                    "bceeaee1b43b7e5639875287e479a645378a5e26e9f2f03f12c303346722825c",
	"small/1/tum-known":              "bceeaee1b43b7e5639875287e479a645378a5e26e9f2f03f12c303346722825c",
	"small/1/tum-z32-fixediid":       "bb96fe73130d34f377aabd2406ad86668f29f6a818aafa5da50ee5d3b3039d66",
	"small/1/tum-z32-lowbyte1":       "6a142cda849cf2c6fe7b94b9445208fb0ab1adde32fc1739a78bffd44247fd73",
	"small/1/tum-z32-randomiid":      "796100197486bb7c0bca432577c86c56e40a2993592118df2cb9ead65f54b274",
	"small/1/tum-z48-fixediid":       "de41a252abe6f9c13c5cba8551524eb3a0d599ab584549f26a8350d0bce34555",
	"small/1/tum-z48-lowbyte1":       "a4e0c01b777b8ffdec2796b0ee9b01a93dc084bbd837fe81c1d893461ae13cca",
	"small/1/tum-z48-randomiid":      "dd9668c4db9afe24d99058dac715436a7bcd9bf359c8aefdf290f30b2f848b9b",
	"small/1/tum-z64-fixediid":       "b09f7c9313e3b6d380e2114fe9f6b283dd3cd9c3658101b0ccd2507e786e354d",
	"small/1/tum-z64-lowbyte1":       "a706f09a59b1178c33794484fe3021637d2bd47d7d7df487858c75b8d7081091",
	"small/1/tum-z64-randomiid":      "dd0babf0441c9343b58b64ffc876bf24056e8fe72bcd22328967b30273b6a6c8",
	"small/1/tum-z80-randomiid":      "a63c8b3fcfc8363d443546f8386f0903271849d05452d0bdd2c22c936ed3cdb6",
	"small/3/cdn-k32-known":          "622151708fcc025478d9405677461ca94157b091297c234eb46f853ec358e09d",
	"small/3/cdn-k32-z64-fixediid":   "e81ffec76bf468ea4d37b36b53844905a77226d5c5e54159c001828be82b63de",
	"small/3/fdns_any":               "8e549c1da2f04d660636430002b41c6399c9ae1417976de90d7a4b8706c90d7e",
	"small/3/fiebig":                 "e2373c318bb891964ad1d379365fb7ab27adeec55940223ecfc4aef2b1734ebf",
	"small/3/tum":                    "cbb997a36b7a5b37da60c0b3d7551423bfa33658b3b8914784b4fd9ccbc12922",
	"small/3/tum-known":              "cbb997a36b7a5b37da60c0b3d7551423bfa33658b3b8914784b4fd9ccbc12922",
	"small/3/tum-z32-fixediid":       "4cebeba2fea3d0a7f282b5c282fbf0179868f0d882f817bb019bf17acc2b31e7",
	"small/3/tum-z32-lowbyte1":       "955d371afc449799e2e80687592111af27dabbccdd28b74598184d77569b8476",
	"small/3/tum-z32-randomiid":      "16d66d799a8a816d3866e39c80bbaa9ff424c08135d739e42af5de6c7d758c9f",
	"small/3/tum-z48-fixediid":       "d44d0db2e102353b9551ddcd12f8021554ed3f5691f43ebb3e7a33431c495924",
	"small/3/tum-z48-lowbyte1":       "428e72caafae7914a267e8f8908ef2d75291d2ba80c58fa0931e5afc91e26389",
	"small/3/tum-z48-randomiid":      "dfac91cd3be1508cd7329f688f3375d913503288e8fe6171cbd90805fca28868",
	"small/3/tum-z64-fixediid":       "6d5ba22b409052f912fe386a8bcac9cff190f22a3de0f569a0e39834341bc8ef",
	"small/3/tum-z64-lowbyte1":       "9e903ee9f465551345c9e11f4cc926a94218b1ad2ac2d21adaaeb3112668231a",
	"small/3/tum-z64-randomiid":      "977dcc27d63de2e16fdb3f3d2f09a8c4737fb9a11978ef1a4682bbdc4ad7f622",
	"small/3/tum-z80-randomiid":      "c301d14753eee7d2474700f33d9ade77fd1664539df13406e8741ab85cc45d46",
}

func TestSeedAndTargetPins(t *testing.T) {
	universes := []struct {
		name string
		cfg  netsim.Config
	}{
		{"small", netsim.TestConfig(5)},
		{"full", netsim.DefaultConfig(5)},
	}
	for _, uv := range universes {
		u := netsim.NewUniverse(uv.cfg)
		for _, scale := range []seeds.Scale{0.2, 1, 3} {
			for name, got := range pinDigests(u, scale) {
				key := fmt.Sprintf("%s/%g/%s", uv.name, float64(scale), name)
				want, ok := targetPins[key]
				if !ok {
					t.Errorf("no pin for %s: %q", key, got)
					continue
				}
				if got != want {
					t.Errorf("%s: digest %s, pinned %s", key, got, want)
				}
			}
		}
	}
}
