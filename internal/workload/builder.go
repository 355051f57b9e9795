package workload

// Exported layer builders: the graph IR front end (internal/graph)
// lowers Conv/DWConv/FC/MatMul nodes through them, so a described
// model gets the same lowering the built-in models use.

// Conv lowers a standard convolution to its im2col GEMM. h and w are
// the input spatial dims, c the input channels, k the filter count, r
// the (square) kernel size.
func Conv(name string, h, w, c, k, r, stride, pad int) GEMM {
	return conv(name, h, w, c, k, r, stride, pad)
}

// DWConv lowers a depthwise convolution (one filter per channel) with
// the systolic-array efficiency penalty applied.
func DWConv(name string, h, w, c, r, stride, pad int) GEMM {
	return dwconv(name, h, w, c, r, stride, pad)
}

// FC lowers a fully-connected layer at batch 1.
func FC(name string, in, out int) GEMM {
	return fc(name, in, out)
}

// MatMul describes a raw GEMM (attention scores, projections, ...).
func MatMul(name string, m, k, n int) GEMM {
	return GEMM{Name: name, M: m, K: k, N: n}
}
