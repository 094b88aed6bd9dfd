package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
)

// pinnedStreams holds, per (profile, source kind), the stream hash of
// cores 0 and 5 at seeds 1 and 2, in the order streamCases lists them.
var pinnedStreams = map[string][4]uint64{
	"apache/strided":      {0x2b58dd9b079c48c, 0x9e6d9d3a9715dc1a, 0x11b3769306de936f, 0xefb22cf26075744a},
	"apache/ptrchase":     {0x23bde76d52ce07df, 0x92d007e7aeca5896, 0x2aaa4c378b1f323c, 0xb51795d2de021992},
	"apache/hashprobe":    {0x1a78f6c1d060cc68, 0x99181891dc0e4d15, 0x430c3464919aab7, 0x577a147332522a30},
	"apache/btree":        {0x92bd5d8136187003, 0x16ff1ba387973e99, 0x4cd57ab542929512, 0xa6dfe815949c72ef},
	"apache/srvmix":       {0x62d4f0b7b8ee77cd, 0x507a72a7d967cc4d, 0x2b6062d51722b8c7, 0x19ff72347a93795f},
	"jbb/strided":         {0x2899d6a663399467, 0xc25de77028c2df6f, 0x36ca972026c31147, 0xd72e6b75e71c1c4},
	"jbb/ptrchase":        {0x216f8f256a5e23c6, 0x7824e9f0a3d51b66, 0x9f2021f81b532cdf, 0xea71b10f4ae72986},
	"jbb/hashprobe":       {0x13bd278c3b1b1968, 0xace17af80286039f, 0x24980d2417658b5c, 0x701ca7d2c4b6ce3e},
	"jbb/btree":           {0x7b6419937734a0c3, 0x9f3b1a3a486bb7d2, 0xf9ef240c6e569548, 0x5ee23eb2233c28c9},
	"jbb/srvmix":          {0x7cdb9f74b3d34d67, 0x46279e4190ed5310, 0x378e3ff05a71eb28, 0xa50921732c7cd5a2},
	"oltp/strided":        {0xf4ee1418439afd19, 0x4f7043fc82c34b82, 0x8e53be0fdc9cb9b, 0xfb609a8bf33df1d},
	"oltp/ptrchase":       {0xb86ea5fb886e88f, 0x6c462d8145b0e25c, 0x1c9b1b214c21575a, 0x3329adeadd1476aa},
	"oltp/hashprobe":      {0x4074cf6d0d6965c1, 0xc01de0fe36f09169, 0x798eacef3fd5cdb7, 0x858445ffa4198ff5},
	"oltp/btree":          {0xb0abad5bac3569cc, 0xeb671734a39a880f, 0x2857e7fd39f4d6d6, 0xa39c950fe76c6a08},
	"oltp/srvmix":         {0xf4aa8cce51dd85d7, 0x5aca36419ce274f2, 0x144aedbe6984a22a, 0xf275e7c6c7c00fec},
	"zeus/strided":        {0xa2c71f0f2a03e3d9, 0xf99e23c95171c2ee, 0x219fa2bae6c9550f, 0xfc1613f49f10845f},
	"zeus/ptrchase":       {0x69b9c4e0d1b02c08, 0x142a770b19df5a6c, 0x71fc3eced589ba53, 0xa1b1f059203c52d3},
	"zeus/hashprobe":      {0xd1a4038dcde27f71, 0xed569638808509a2, 0xef99d7adc92d8feb, 0xa62eda0fdba408c7},
	"zeus/btree":          {0xd48916e70298e5a2, 0x570e4aee114701b7, 0xb8c005ef80511276, 0x3b66b4418c3a62b9},
	"zeus/srvmix":         {0xe2d97d910c03f7da, 0x1f114588e838092f, 0xf0169aa4f6f961a2, 0x59bdada34be1368b},
	"apsi/strided":        {0x13b481b7ff193c2a, 0xec590d33cf862187, 0xf0bee6152286747f, 0xe2ccc479b97c711f},
	"apsi/ptrchase":       {0xb4ded2a31fe5863e, 0x28f42fa8bf41fe9e, 0xb060741570584018, 0x4ba1ff49a7db193a},
	"apsi/hashprobe":      {0x61bd433e16c28d2, 0xd77a5189fc4a444c, 0xfdda6c6d4b8961e0, 0x4c14ac45df5871ca},
	"apsi/btree":          {0xafe257bf171b1f3a, 0x7bf01922039b65d0, 0xe43a2a3cf6230f9c, 0x97b21608d9bf54f3},
	"apsi/srvmix":         {0xa608f9127210a286, 0x8187d3305ce58cc0, 0x93c8ec4f58323ff, 0x56ffc135429a326c},
	"art/strided":         {0xa3cb07f5dca973d9, 0xf25722d34660dd56, 0x44c02bbe5df0e257, 0x24f68f9630d08d3d},
	"art/ptrchase":        {0xd07473cad5fcd98b, 0xab8be5fdeff8e03f, 0x48523a87456f15fa, 0x32f78990122a4380},
	"art/hashprobe":       {0xc97c8c7be5ec3431, 0x191c9d50b01a7dc4, 0x6bef9b8d7ea198e4, 0x5acebff61b5f0704},
	"art/btree":           {0x7f6242305deb7765, 0x3c6362876e65a523, 0xb61a7f73ad4b2203, 0x7ef20b3b06e742cf},
	"art/srvmix":          {0x2deacdd5b36aace4, 0xab5a901ae64914b8, 0xaabe4d7bf7d1b159, 0x48c55cc06dc4d104},
	"fma3d/strided":       {0x2c7c2b76be235da6, 0x189f3ae590509729, 0x9c1b2ac3499a4d7c, 0xc65ce868fcbcba25},
	"fma3d/ptrchase":      {0xf97d3fe003008d6a, 0x7527e06ba8d6ff1c, 0x32dfb9175e16a178, 0x3393723d91cf5458},
	"fma3d/hashprobe":     {0x7220f50bbde85609, 0xc7342fe6d1362ae8, 0x3f8a7672b757d6e9, 0xb38d01aa9376a6c1},
	"fma3d/btree":         {0x32cc6c723361232, 0x6c12a76f1ff6d6c, 0xf36ed84a11871b6d, 0xf0c6f8a41571330f},
	"fma3d/srvmix":        {0x3bab201aa03a6d60, 0x6a5e9b77f1d0084, 0x681f15ed30b75b94, 0x316954ac3771ac33},
	"mgrid/strided":       {0x9a4b64ec185568ab, 0x3a204aaf4ccb92d8, 0x1b0fa6def15fe505, 0xe1e5de241946548d},
	"mgrid/ptrchase":      {0xb61f3cb018be4924, 0x2e83a05e2beff6f0, 0xe863f2a00b5b36b9, 0x5c711d191da36d3f},
	"mgrid/hashprobe":     {0x7218f520fda67b06, 0x1d3c60672c81ad75, 0x1f817295d5b97e6e, 0x101ad70262cdfa9f},
	"mgrid/btree":         {0xb333edf9a91555b, 0xa8c6381274a8a4e0, 0xcd585810853007df, 0x6980c9669741197a},
	"mgrid/srvmix":        {0x7011ae19f1d8a7eb, 0xdb5e4d443aea27a5, 0xc426a02a3ee9d5eb, 0x269963ad0ef6c869},
	"btree/strided":       {0x4eeb159cdd87ba89, 0xfd44d1e23e6dddfa, 0x684ac74a161d40fc, 0x3d6cb966fd8be12},
	"btree/ptrchase":      {0x4709dfebdb171863, 0x89102102944225b9, 0xeb5c316a7500fb60, 0xe4801af498fe224e},
	"btree/hashprobe":     {0xcc77fd3d6b721860, 0x94047db08a13bc6, 0xa7134ccdeb2797c, 0xd406fbb5f7566fde},
	"btree/btree":         {0x86f91d9c714ab535, 0x7142b5887212cc05, 0x7e755473a608c04f, 0x4aec0eb758138a3f},
	"btree/srvmix":        {0x42033f90f9d36d53, 0x59b89feeca754d74, 0x1ee671acd94c32ae, 0x6572e2c31cb1c85b},
	"hashprobe/strided":   {0x27caa2fe29441996, 0x697ba2ad8f51985d, 0x45faa9e6ade2b8a9, 0xa2a8ca1dacd7239c},
	"hashprobe/ptrchase":  {0xf35fd5f933495594, 0x18cdba52870a03ac, 0x8a59feb6de626176, 0x6ea25cb8ef98636b},
	"hashprobe/hashprobe": {0xc30685e71dcd0141, 0xb626dcb5068c201a, 0x56d3e55cb387279b, 0xf776c163901500dc},
	"hashprobe/btree":     {0x1d2581733dcebda0, 0x98802325b0a180b4, 0xc6c49faf6620afd9, 0x27c6a1a495dca6a6},
	"hashprobe/srvmix":    {0xbb8b89a2fdaaac37, 0x60d4f4b46e0949bf, 0x505c44b0d0112d29, 0x7d29cacf8e432bf3},
	"ptrchase/strided":    {0x457dd7dcc22fdcce, 0xb9ec61bf57c371bc, 0x2f6af1c4bb5159ea, 0x14fa3d0f10029217},
	"ptrchase/ptrchase":   {0xf05f5e650927ff7c, 0x6ac5ac5c6aa16f8f, 0x4bf7eabc7a4adc25, 0x631c10a6c9c4dd75},
	"ptrchase/hashprobe":  {0xdb85a1c333db2b8e, 0xeb25f56dd22ab63, 0x2def1bc6b6d4ad3d, 0x9541189e084dba82},
	"ptrchase/btree":      {0x3fd015b56305bbe4, 0x2796018c7552092d, 0x8d6fda231c3487cb, 0xcc7c24629ebde6d2},
	"ptrchase/srvmix":     {0x4eb4a804645dc23d, 0xba42fef542453ac9, 0x3c950d42f673a46d, 0x6647e2b105b7a845},
	"srvmix/strided":      {0x80313af2709a8bc9, 0x94188406227cb1cb, 0x32f34ae6207adf55, 0xfaa7cbe8e029f145},
	"srvmix/ptrchase":     {0x435bacdd5e53866d, 0xe65578a35c99bfb6, 0xa2f1897e6bda656b, 0x9123a2f393535546},
	"srvmix/hashprobe":    {0x167c40282a11c1da, 0xb94b7f3290f62fc4, 0xb25620e3299179f, 0xbcc6b6b24a73147e},
	"srvmix/btree":        {0x34cc80fd601f6b9d, 0x760325d6d57bdbae, 0xd3b72f433b902d8c, 0x97e6da1d2c83210c},
	"srvmix/srvmix":       {0x4c1fa6c9ace8d10e, 0x388e95685f825f8, 0xd6760a9aafbf2bf, 0x20c302fd232f1bc},
}

// streamCases is the (core, seed) order of a pinnedStreams entry.
var streamCases = [4]struct {
	core int
	seed int64
}{{0, 1}, {0, 2}, {5, 1}, {5, 2}}

// pinnedServiceMixPhases is the hash of srvmix's own stream at core 0,
// seed 1 over 81,920 references: about 640,000 instructions, so all
// three of its 200,000-instruction phases, which the first 4096
// references do not leave.
const pinnedServiceMixPhases uint64 = 0xee1c7493af453bdb

// streamHash hashes the first n references of src, drawn in batches of
// 256, and then its Counts.
func streamHash(src RefSource, n int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	refs := make([]Ref, 256)
	for i := 0; i < n; i += len(refs) {
		src.NextN(refs)
		for _, r := range refs {
			blocking := uint64(0)
			if r.Blocking {
				blocking = 1
			}
			put(uint64(r.Gap)<<32 | uint64(r.Kind)<<8 | blocking)
			put(uint64(r.Addr))
		}
	}
	in, data, fetch := src.Counts()
	put(in)
	put(data)
	put(fetch)
	return h.Sum64()
}

// TestReferenceStreamsPinned pins every profile's stream under every
// registered source kind bit for bit: the addresses, gaps, kinds and
// blocking flags of the first 4096 references and the emission counts
// after them. A change to how sources are built or share code must
// leave every one where it is.
func TestReferenceStreamsPinned(t *testing.T) {
	var table string
	for _, bench := range Names() {
		p := MustByName(bench)
		for _, kind := range SourceNames() {
			key := bench + "/" + kind
			var got [4]uint64
			for i, c := range streamCases {
				got[i] = streamHash(MustNewSource(kind, p, c.core, c.seed), 4096)
			}
			table += fmt.Sprintf("\t%q: {%#x, %#x, %#x, %#x},\n", key, got[0], got[1], got[2], got[3])
			want, ok := pinnedStreams[key]
			if !ok {
				t.Errorf("%s: no pinned hashes", key)
				continue
			}
			for i, c := range streamCases {
				if got[i] != want[i] {
					t.Errorf("%s core %d seed %d: stream hash %#x, want %#x", key, c.core, c.seed, got[i], want[i])
				}
			}
		}
	}
	src := MustNewSource("", MustByName("srvmix"), 0, 1)
	got := streamHash(src, 81920)
	table += fmt.Sprintf("srvmix phases: %#x\n", got)
	if in, _, _ := src.Counts(); in < 600_000 {
		t.Errorf("srvmix phase check ran %d instructions, want all three phases", in)
	}
	if got != pinnedServiceMixPhases {
		t.Errorf("srvmix over three phases: stream hash %#x, want %#x", got, pinnedServiceMixPhases)
	}
	if len(pinnedStreams) != len(Names())*len(SourceNames()) {
		t.Errorf("%d pinned entries, want one per profile and kind", len(pinnedStreams))
	}
	if t.Failed() {
		t.Logf("current hashes:\n%s", table)
	}
}
