package exec_test

// Golden bit-identity: the interpreter's outputs on every Fig. 11 model,
// decomposed and optimized, are pinned by SHA-256 digest per SIMD mode.
// A kernel change that keeps every bit passes unchanged, which the
// cross-executor suites alone cannot show: they agree by construction.
// The digests were last re-recorded when every ungrouped k×k conv moved
// from the direct loop onto the im2col GEMM, a change of summation order
// that moved outputs by at most 1.2e-6 of a model's largest output.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"temco/internal/core"
	"temco/internal/decompose"
	"temco/internal/exec"
	"temco/internal/experiments"
	"temco/internal/gemm"
	"temco/internal/ir"
	"temco/internal/models"
	"temco/internal/ops"
	"temco/internal/tensor"
)

// goldenDigests maps "model/variant/b=N/simd=on|off" to the SHA-256 of
// the outputs' float32 bits (little-endian, outputs in graph order).
var goldenDigests = map[string]string{
	"alexnet/decomposed/b=1/simd=on":     "94919286b5c71b2f83fb9423c347d30b862a25d1ad031a887b33378e1ccb7cbe",
	"alexnet/decomposed/b=4/simd=on":     "25502e28d487331ae30cd459d34cdae89e01e260bc5d327e99d458063dd92257",
	"alexnet/optimized/b=1/simd=on":      "1bca1eb51e0c504ca10f2cd49d0f3cce9826ff0a91a341dc5c635ba1a1485c8e",
	"alexnet/optimized/b=4/simd=on":      "d3d4ff66d5b901b4b28ad895ef430fddc0ac8f4c879a037e889ae2fd5e9b81d5",
	"vgg11/decomposed/b=1/simd=on":       "48939de2b37d1eef806f03d640c53c7c49b2fe83f17dd4b9c24082c3cb634bd7",
	"vgg11/decomposed/b=4/simd=on":       "34240d420f54dd685a47b3d5418bd2d314d7f44464b59b2aeb7e6d107c2d9273",
	"vgg11/optimized/b=1/simd=on":        "b3b6387ca340b2e24db0bd7e3901a81838a3a0e385b48434b7e3117b9cc2a467",
	"vgg11/optimized/b=4/simd=on":        "a66cf30966cf898a07812f280f93914be057dda1e35a398c067736a8ac3a2ea0",
	"resnet18/decomposed/b=1/simd=on":    "ebbdbe126b84bbb03f544624b7d67994f494720fd90d35b873f7fbcf56c9acd8",
	"resnet18/decomposed/b=4/simd=on":    "d59eb18ae7157d591f639b907dbfe8b4c866e7e8df853646202102cbd4207640",
	"resnet18/optimized/b=1/simd=on":     "5498288567d21d5a568147a12e8479573220b6307059476e80460ff20fc07f0f",
	"resnet18/optimized/b=4/simd=on":     "e91a6b4c19bbb07b589c284d57b1b390bc08cd2ff8c415b65a06e8bde1fd29b7",
	"densenet40/decomposed/b=1/simd=on":  "fb2b665f84abd7b2afc3193ea374ff79b4d87a3a171d2b348730c6934545e4a6",
	"densenet40/decomposed/b=4/simd=on":  "0f44321f93aaec892fbe3e5312538c9fe554aa93e2d91a8cfec26568c60ad4db",
	"densenet40/optimized/b=1/simd=on":   "e6e793df80a5c18c671d3e15579af10ef792209e04a0df0b5a3b4df30726c9bd",
	"densenet40/optimized/b=4/simd=on":   "d0ac7790756c327c03bf20f4bafd7c910633848aa5bef50b3fd0063d0d284b1d",
	"unet-s/decomposed/b=1/simd=on":      "600997948bbd2ba5a0c48670eb29c263fe6156489e4072591c2c0b01f2af48f6",
	"unet-s/decomposed/b=4/simd=on":      "1170cc38504b439faff97a5ad21fa52ac25564e48d6abc3a1a604a2966e17a5e",
	"unet-s/optimized/b=1/simd=on":       "600997948bbd2ba5a0c48670eb29c263fe6156489e4072591c2c0b01f2af48f6",
	"unet-s/optimized/b=4/simd=on":       "1170cc38504b439faff97a5ad21fa52ac25564e48d6abc3a1a604a2966e17a5e",
	"alexnet/decomposed/b=1/simd=off":    "999b291b398fe7d169e50360fde5b399b1e8b06c636855ac9011a1350167fbda",
	"alexnet/decomposed/b=4/simd=off":    "4bbf4aef8ca0410995194dd7167ad35fab37b0e3285dee785a60d19a1f6e3c0f",
	"alexnet/optimized/b=1/simd=off":     "999b291b398fe7d169e50360fde5b399b1e8b06c636855ac9011a1350167fbda",
	"alexnet/optimized/b=4/simd=off":     "4bbf4aef8ca0410995194dd7167ad35fab37b0e3285dee785a60d19a1f6e3c0f",
	"vgg11/decomposed/b=1/simd=off":      "85711f0af2917bca24ff5c79267259197bc3393aa592f60e23bdd6b43466d51b",
	"vgg11/decomposed/b=4/simd=off":      "2f1a1dcb2680650d4271e9bb21e14722d5bd3ad524d63ba4296dea956252313a",
	"vgg11/optimized/b=1/simd=off":       "85711f0af2917bca24ff5c79267259197bc3393aa592f60e23bdd6b43466d51b",
	"vgg11/optimized/b=4/simd=off":       "2f1a1dcb2680650d4271e9bb21e14722d5bd3ad524d63ba4296dea956252313a",
	"resnet18/decomposed/b=1/simd=off":   "28b3a6bbe7b1b0577e369a5dcaabe382683747c3cd336f21fbc30e2aba7a794c",
	"resnet18/decomposed/b=4/simd=off":   "6fabeac14ec0c46f6377b34750ba1b5b7b3289ac9a725eb420c7a384708e776d",
	"resnet18/optimized/b=1/simd=off":    "1b34673f8114206f61ade3e6b2aa29516bd9854cc6f86bc05a398854f01c900a",
	"resnet18/optimized/b=4/simd=off":    "258db505ae41e9f8268cb44c3c1017abb49d54cd85d6d4eafb51e01787144d53",
	"densenet40/decomposed/b=1/simd=off": "471927b49bac227192bdb7992c92ae11ebcefc8e09ca0038c80f9a3ec3b6216b",
	"densenet40/decomposed/b=4/simd=off": "999ef201c4e8dfd66505983befe036719b39889ac992ca803e56e3eb632ad7d1",
	"densenet40/optimized/b=1/simd=off":  "dd0a004e7560c92cbfb674033c700a2d783dde2c0de7e1b9461f2f867769da90",
	"densenet40/optimized/b=4/simd=off":  "6eb40094d3d463f06a3d834708d516cbd1b5031a73d66a469a2dff107ee8b3dd",
	"unet-s/decomposed/b=1/simd=off":     "f0e134ed944d172a6fdf4b79165da96d6cc0e9d262dd9f3d949a054e340dbfc0",
	"unet-s/decomposed/b=4/simd=off":     "3f9633f77783ffec43c1ec8063883a04a07d040a8b8ae45746f8a06fc8c44f96",
	"unet-s/optimized/b=1/simd=off":      "f0e134ed944d172a6fdf4b79165da96d6cc0e9d262dd9f3d949a054e340dbfc0",
	"unet-s/optimized/b=4/simd=off":      "3f9633f77783ffec43c1ec8063883a04a07d040a8b8ae45746f8a06fc8c44f96",
}

func outputDigest(res *exec.Result) string {
	h := sha256.New()
	var buf [4]byte
	for _, t := range res.Outputs {
		for _, v := range t.Data {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenOutputDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other targets may contract x*y+z into one FMA in the scalar
		// kernels, which legitimately changes the bits.
		t.Skip("goldens were recorded on amd64")
	}
	if raceEnabled {
		t.Skip("bit check, not a concurrency check; too slow under the race detector")
	}
	cfg := models.DefaultConfig()
	cfg.H, cfg.W = 32, 32
	type variant struct {
		name string
		g    *ir.Graph
	}
	var graphs [][]variant
	for _, name := range []string{"alexnet", "vgg11", "resnet18", "densenet40", "unet-s"} {
		spec, err := models.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		dg, err := experiments.BuildVariant(spec, experiments.Decomposed, cfg, decompose.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		ocfg := core.FusionOnly()
		if spec.HasSkips {
			ocfg = core.DefaultConfig()
		}
		og, _ := core.Optimize(dg, ocfg)
		graphs = append(graphs, []variant{{name + "/decomposed", dg}, {name + "/optimized", og}})
	}
	prevW := ops.SetWorkers(1)
	defer ops.SetWorkers(prevW)
	for _, simd := range []bool{true, false} {
		prevSIMD := gemm.SetSIMD(simd)
		if simd && !gemm.SIMD() {
			gemm.SetSIMD(prevSIMD)
			t.Log("no AVX2+FMA on this host: SIMD-on goldens skipped")
			continue
		}
		mode := "off"
		if simd {
			mode = "on"
		}
		for _, vs := range graphs {
			for _, v := range vs {
				for _, batch := range []int{1, 4} {
					in := v.g.Inputs[0]
					x := tensor.New(append([]int{batch}, in.Shape...)...)
					x.FillNormal(tensor.NewRNG(17), 0, 1)
					key := fmt.Sprintf("%s/b=%d/simd=%s", v.name, batch, mode)
					want, ok := goldenDigests[key]
					// Serial and parallel kernels must land on the same bits.
					for _, workers := range []int{1, 4} {
						ops.SetWorkers(workers)
						res, err := exec.Run(v.g, x)
						if err != nil {
							t.Fatalf("%s: %v", key, err)
						}
						got := outputDigest(res)
						if !ok {
							t.Errorf("%q: %q, // no golden recorded", key, got)
							break
						}
						if got != want {
							t.Errorf("%s workers=%d: digest %s, want %s", key, workers, got, want)
						}
					}
				}
			}
		}
		gemm.SetSIMD(prevSIMD)
	}
}
