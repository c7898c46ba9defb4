package exec_test

// Golden bit-identity: the interpreter's outputs on every Fig. 11 model,
// decomposed and optimized, are pinned by SHA-256 digest per SIMD mode.
// The digests were recorded before the interpreters moved onto the
// engine's planned kernels, so they prove the kernel paths that remain
// compute exactly the bits the removed unplanned paths computed — the
// cross-executor suites alone would agree by construction.

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
	"alexnet/decomposed/b=1/simd=on":     "cfa88ef80a4d5278d66f8acc0065d9dfdd4ead3816ef32a43871577dccc21299",
	"alexnet/decomposed/b=4/simd=on":     "c5ad1dfd9070116dd2348ec6023aa56db1e4dff892f380ba274b4dbe1e6b7836",
	"alexnet/optimized/b=1/simd=on":      "37440a108864f351bbd57377b3666d184c09f3ac7a8c4feb0c487a623c2add15",
	"alexnet/optimized/b=4/simd=on":      "3c2a63fca7044a1580e975659935b468fe6b9478d3ed30aad3655a23c1632c30",
	"vgg11/decomposed/b=1/simd=on":       "c9b7a46d5867c0c6c78425e169429a7bb0fc4e2aea33808368bd5f55c4c368b9",
	"vgg11/decomposed/b=4/simd=on":       "19001c042fa70e223c066fbe6e99fb5f2edd88b21469b092f0a58381da435f21",
	"vgg11/optimized/b=1/simd=on":        "b249a182040247914b5947619cee4a528b92e0fa968cbe402cbf1d0dba0735bb",
	"vgg11/optimized/b=4/simd=on":        "d3fefff47668d178dbc488367b5b8200ce38610f18422f03ebcd4557f315682f",
	"resnet18/decomposed/b=1/simd=on":    "01531b911b6183cf6e13c7694abcf71f0d7009ba37fbb600a9f1f18f632bbb55",
	"resnet18/decomposed/b=4/simd=on":    "bd40e4c520197e08bf3f896b6124fb1d0a3215a22444944b7c67fdbf12cffca2",
	"resnet18/optimized/b=1/simd=on":     "7064bcb3191a75402113aa55c4077bc01a8374464a71b3dfb3732e07928abd4f",
	"resnet18/optimized/b=4/simd=on":     "2f2c416f175058d3de6fa04813d81e1e94b28e0db7289697d996b04685c70102",
	"densenet40/decomposed/b=1/simd=on":  "6bb3384e237bae4e80901486a55df90f19006563a9d4f2296256d2801a60494f",
	"densenet40/decomposed/b=4/simd=on":  "5b3de6428d1150c00a0b6ca300b62274c604d3e341a0622da2a4dbe26811616a",
	"densenet40/optimized/b=1/simd=on":   "d8dcff8e6183655dfab591461de6026fd7d0ab6ea1727c57aca116a0cfc595a6",
	"densenet40/optimized/b=4/simd=on":   "1768d9f57cf29e894e048adb5da43af236d7becddbb6025f968a9d8c02cc7479",
	"unet-s/decomposed/b=1/simd=on":      "116695401cf3597981c60ef0df4c9a1d9eefab7968419de79a763ce8e7ac91b4",
	"unet-s/decomposed/b=4/simd=on":      "0ff165891c0542577e3588a7a38af23e413792d0616ea118ce9e9d0844eaba60",
	"unet-s/optimized/b=1/simd=on":       "116695401cf3597981c60ef0df4c9a1d9eefab7968419de79a763ce8e7ac91b4",
	"unet-s/optimized/b=4/simd=on":       "0ff165891c0542577e3588a7a38af23e413792d0616ea118ce9e9d0844eaba60",
	"alexnet/decomposed/b=1/simd=off":    "8aaed0b4076afd02433a21c609bdd0bc73a0c7cbbe45c49238123be91e5cbfee",
	"alexnet/decomposed/b=4/simd=off":    "147a83f9c8e75447050b6e31fc00fc03acd38c2d95b7acceb0970b326f6f511a",
	"alexnet/optimized/b=1/simd=off":     "8aaed0b4076afd02433a21c609bdd0bc73a0c7cbbe45c49238123be91e5cbfee",
	"alexnet/optimized/b=4/simd=off":     "147a83f9c8e75447050b6e31fc00fc03acd38c2d95b7acceb0970b326f6f511a",
	"vgg11/decomposed/b=1/simd=off":      "ca94439bfe4ad3e259e359e94fa13afcff9d9fbfef008a7e0c1d73d80f5460d4",
	"vgg11/decomposed/b=4/simd=off":      "0ad946133b90c0e1504a73de406dd0ea4c6541baec732c726eb1d7eeae68b002",
	"vgg11/optimized/b=1/simd=off":       "ca94439bfe4ad3e259e359e94fa13afcff9d9fbfef008a7e0c1d73d80f5460d4",
	"vgg11/optimized/b=4/simd=off":       "0ad946133b90c0e1504a73de406dd0ea4c6541baec732c726eb1d7eeae68b002",
	"resnet18/decomposed/b=1/simd=off":   "64384cfda4fbf4a82c07d8bd4ab3da632db0b99dace33a3827e9d392866bf7bf",
	"resnet18/decomposed/b=4/simd=off":   "3dde88d5b49b38ea1b0966703fac4106641f987ee69c610bfaef4859b0b694ab",
	"resnet18/optimized/b=1/simd=off":    "d563e7f878223cb4871d2a5013eeb0aad97240c9ab25a468948de8aac3b1d023",
	"resnet18/optimized/b=4/simd=off":    "41a61cd0106b3a0a8bb7d7e9809807ab28c34328951ae575ccc1ceeda326b9be",
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
