package workload

import "fmt"

// Extra workloads beyond the paper's evaluation set: useful for
// library users and for stressing the tiler/executor with shapes the
// six headline models do not cover (very deep VGG stacks, decoder-style
// autoregressive steps, wide recommendation MLPs). They are not part
// of All() so the reproduced figures stay matched to the paper.

// VGG16 returns the 16-layer VGG network (224x224): the classic
// weight-heavy CNN (~138 M parameters), dominated by its FC layers.
func VGG16() Workload {
	type block struct {
		convs, ch, h int
	}
	blocks := []block{
		{2, 64, 224},
		{2, 128, 112},
		{3, 256, 56},
		{3, 512, 28},
		{3, 512, 14},
	}
	var layers []Layer
	in := 3
	for bi, b := range blocks {
		for c := 0; c < b.convs; c++ {
			name := fmt.Sprintf("conv%d_%d", bi+1, c+1)
			layers = append(layers, Layer{Name: name, GEMMs: []GEMM{
				conv(name, b.h, b.h, in, b.ch, 3, 1, 1),
			}})
			in = b.ch
		}
	}
	layers = append(layers,
		Layer{Name: "fc6", GEMMs: []GEMM{fc("fc6", 512*7*7, 4096)}},
		Layer{Name: "fc7", GEMMs: []GEMM{fc("fc7", 4096, 4096)}},
		Layer{Name: "fc8", GEMMs: []GEMM{fc("fc8", 4096, 1000)}},
	)
	return Workload{Name: "vgg16", Layers: layers}
}

// GPTDecodeStep returns one autoregressive decode step of a GPT-style
// transformer: batch 1, a single new token attending over a cached
// context of ctxLen tokens. Every GEMM has M=1 — the pathological
// low-utilization case for a systolic array, and the memory-bound
// regime modern serving lives in.
func GPTDecodeStep(layers, hidden, heads, ffn, ctxLen int) Workload {
	headDim := hidden / heads
	var ls []Layer
	for l := 0; l < layers; l++ {
		name := fmt.Sprintf("dec%d", l+1)
		var attn []GEMM
		for _, proj := range []string{"q", "k", "v"} {
			attn = append(attn, GEMM{Name: fmt.Sprintf("%s_%sproj", name, proj), M: 1, K: hidden, N: hidden})
		}
		for h := 0; h < heads; h++ {
			attn = append(attn,
				GEMM{Name: fmt.Sprintf("%s_scores_h%d", name, h), M: 1, K: headDim, N: ctxLen},
				GEMM{Name: fmt.Sprintf("%s_ctx_h%d", name, h), M: 1, K: ctxLen, N: headDim},
			)
		}
		attn = append(attn, GEMM{Name: name + "_outproj", M: 1, K: hidden, N: hidden})
		ls = append(ls, Layer{Name: name + "_attn", GEMMs: attn})
		ls = append(ls, Layer{Name: name + "_ffn", GEMMs: []GEMM{
			{Name: name + "_ffn1", M: 1, K: hidden, N: ffn},
			{Name: name + "_ffn2", M: 1, K: ffn, N: hidden},
		}})
	}
	return Workload{Name: "gpt-decode", Layers: ls}
}

// GPTSmallDecode is a GPT-2-small-scale decode step over a 512-token
// context.
func GPTSmallDecode() Workload {
	return GPTDecodeStep(12, 768, 12, 3072, 512)
}

// DLRM returns a recommendation-style MLP tower: wide dense layers at
// batch 1 — bandwidth bound, embedding lookups excluded.
func DLRM() Workload {
	dims := []int{2048, 1024, 1024, 512, 256, 1}
	var layers []Layer
	for i := 0; i+1 < len(dims); i++ {
		name := fmt.Sprintf("mlp%d", i+1)
		layers = append(layers, Layer{Name: name, GEMMs: []GEMM{fc(name, dims[i], dims[i+1])}})
	}
	return Workload{Name: "dlrm", Layers: layers}
}
