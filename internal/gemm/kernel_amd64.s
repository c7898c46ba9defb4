// AVX2+FMA tile kernel and CPUID feature probes for the float32 GEMM
// path. The tile kernel computes an 8-row × 8-column tile of C from an
// MR=8-packed A panel and eight columns of B (a packed panel or the
// row-major operand in place): per k step it loads one B row vector and
// fuses eight broadcast-multiply-adds, one per A row, into eight YMM
// accumulators, then writes the tile into C in its epilogue.

#include "textflag.h"

// func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// The tile kernel's epilogue, one macro per write-back mode. Each folds
// the alpha-scaled accumulator row acc into the C row at DX, clamps it
// from below at the floor in Y13, stores it with one vector store, steps
// DX by the C row stride (R10 bytes), and leaves for tdone once R9 rows
// are written. The roundings are those of the scalar gemm.writeBack loops:
// alpha·acc, then one add. VMAXPS returns its second source on ties and
// unordered inputs, so with the floor as the first source a -Inf floor
// passes every value through bit for bit and a +0 floor is exactly the
// scalar ReLU `if v < 0 { v = 0 }` (-0 and NaN survive).
#define TILE_ACCUMULATE(acc) \
	VADDPS  (DX), acc, acc; \
	VMAXPS  acc, Y13, acc; \
	VMOVUPS acc, (DX); \
	ADDQ    R10, DX; \
	DECQ    R9; \
	JZ      tdone

#define TILE_OVERWRITE(acc) \
	VMAXPS  acc, Y13, acc; \
	VMOVUPS acc, (DX); \
	ADDQ    R10, DX; \
	DECQ    R9; \
	JZ      tdone

#define TILE_BETA(acc) \
	VMULPS  (DX), Y15, Y9; \
	VADDPS  Y9, acc, acc; \
	VMAXPS  acc, Y13, acc; \
	VMOVUPS acc, (DX); \
	ADDQ    R10, DX; \
	DECQ    R9; \
	JZ      tdone

#define TILE_BIAS(acc) \
	VBROADCASTSS (R12), Y9; \
	VADDPS       Y9, acc, acc; \
	VMAXPS       acc, Y13, acc; \
	VMOVUPS      acc, (DX); \
	ADDQ         $4, R12; \
	ADDQ         R10, DX; \
	DECQ         R9; \
	JZ           tdone

// One k step: load the B row at DI, fuse eight broadcast-multiply-adds
// (one per A row at SI+off) into Y0–Y7. brow/ba/bb are scratch registers.
#define TILE_STEP(off, brow, ba, bb) \
	VMOVUPS      (DI), brow; \
	VBROADCASTSS (off+0)(SI), ba; \
	VFMADD231PS  brow, ba, Y0; \
	VBROADCASTSS (off+4)(SI), bb; \
	VFMADD231PS  brow, bb, Y1; \
	VBROADCASTSS (off+8)(SI), ba; \
	VFMADD231PS  brow, ba, Y2; \
	VBROADCASTSS (off+12)(SI), bb; \
	VFMADD231PS  brow, bb, Y3; \
	VBROADCASTSS (off+16)(SI), ba; \
	VFMADD231PS  brow, ba, Y4; \
	VBROADCASTSS (off+20)(SI), bb; \
	VFMADD231PS  brow, bb, Y5; \
	VBROADCASTSS (off+24)(SI), ba; \
	VFMADD231PS  brow, ba, Y6; \
	VBROADCASTSS (off+28)(SI), bb; \
	VFMADD231PS  brow, bb, Y7

// func tileKernelAsm(k int, a, b *float32, ldb int, c *float32, ldc, rows, mode int, alpha, beta float32, bias *float32, relu int)
//
// The one float32 GEMM tile: acc[i][j] = Σ_p a[p*8+i] · b[p*ldb+j] over an
// 8-row × 8-column tile, accumulated in Y0–Y7 (one output row each) with
// one FMA per step in p order, then written straight into the first rows
// rows of C (row stride ldc elements) in the given gemm.writeBack mode:
// 0 accumulate C += alpha·acc, 1 overwrite C = alpha·acc, 2 beta
// C = alpha·acc + beta·C, 3 bias C = alpha·acc + bias[i]. a is an MR=8
// packed A panel; b is either a packed NR=8 panel (ldb = 8) or the
// row-major B operand read in place (ldb = its leading dimension). With
// relu != 0 every stored value is then clamped to max(+0, v), the scalar
// ReLU; the caller sets it only for a tile's final KC slice. The k loop is
// unrolled by two. k and rows must be >= 1, rows <= 8.
TEXT ·tileKernelAsm(SB), NOSPLIT, $0-88
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ ldb+24(FP), R8
	SHLQ $2, R8        // B row stride in bytes

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

	MOVQ CX, BX
	SHRQ $1, CX        // CX = k/2 double steps
	JZ   ttail

tloop2:
	TILE_STEP(0, Y8, Y9, Y10)
	ADDQ R8, DI
	TILE_STEP(32, Y11, Y12, Y13)
	ADDQ R8, DI
	ADDQ $64, SI
	DECQ CX
	JNE  tloop2

ttail:
	ANDQ $1, BX
	JZ   tstore
	TILE_STEP(0, Y8, Y9, Y10)

tstore:
	MOVQ         c+32(FP), DX
	MOVQ         ldc+40(FP), R10
	SHLQ         $2, R10   // C row stride in bytes
	MOVQ         rows+48(FP), R9
	MOVQ         mode+56(FP), R11
	MOVQ         bias+72(FP), R12
	VBROADCASTSS beta+68(FP), Y15

	// Floor for the store clamp: +0 applies ReLU, -Inf is the identity.
	VXORPS       Y13, Y13, Y13
	CMPQ         relu+80(FP), $0
	JNE          talpha
	VBROADCASTSS negInf<>(SB), Y13

talpha:
	// alpha·acc is exact for alpha == 1 (an FMA result is never a
	// signaling NaN), so the multiply is skipped for plain products.
	MOVL alpha+64(FP), AX
	CMPL AX, $0x3F800000 // float32 1.0 bit pattern
	JEQ  tmode
	VBROADCASTSS alpha+64(FP), Y14
	VMULPS       Y14, Y0, Y0
	VMULPS       Y14, Y1, Y1
	VMULPS       Y14, Y2, Y2
	VMULPS       Y14, Y3, Y3
	VMULPS       Y14, Y4, Y4
	VMULPS       Y14, Y5, Y5
	VMULPS       Y14, Y6, Y6
	VMULPS       Y14, Y7, Y7

tmode:
	CMPQ R11, $1
	JEQ  toverwrite
	CMPQ R11, $2
	JEQ  tbeta
	CMPQ R11, $3
	JEQ  tbias

	TILE_ACCUMULATE(Y0)
	TILE_ACCUMULATE(Y1)
	TILE_ACCUMULATE(Y2)
	TILE_ACCUMULATE(Y3)
	TILE_ACCUMULATE(Y4)
	TILE_ACCUMULATE(Y5)
	TILE_ACCUMULATE(Y6)
	TILE_ACCUMULATE(Y7)

toverwrite:
	TILE_OVERWRITE(Y0)
	TILE_OVERWRITE(Y1)
	TILE_OVERWRITE(Y2)
	TILE_OVERWRITE(Y3)
	TILE_OVERWRITE(Y4)
	TILE_OVERWRITE(Y5)
	TILE_OVERWRITE(Y6)
	TILE_OVERWRITE(Y7)

tbeta:
	TILE_BETA(Y0)
	TILE_BETA(Y1)
	TILE_BETA(Y2)
	TILE_BETA(Y3)
	TILE_BETA(Y4)
	TILE_BETA(Y5)
	TILE_BETA(Y6)
	TILE_BETA(Y7)

tbias:
	TILE_BIAS(Y0)
	TILE_BIAS(Y1)
	TILE_BIAS(Y2)
	TILE_BIAS(Y3)
	TILE_BIAS(Y4)
	TILE_BIAS(Y5)
	TILE_BIAS(Y6)
	TILE_BIAS(Y7)

tdone:
	VZEROUPPER
	RET

// The small-K kernel's row loop tail, shared by its four k variants: add
// the row's bias (when bias is non-nil; adding +0 would turn a -0 into +0,
// so a nil bias adds nothing), clamp at the floor in Y13 and store the row
// chunk, exactly as TILE_BIAS / TILE_OVERWRITE do. Then step to the next
// row: AX moves 4 bytes along the packed A panel and jumps by BX past the
// panel's other k-1 columns after every eighth row (CX counts down the
// rows left in the panel); R13 and R14 step through C and bias. Leaves for
// done once all R15 rows are written, else loops to row.
#define SMALLK_ROW_END(nobias, row, done) \
	TESTQ        R12, R12; \
	JZ           nobias; \
	VBROADCASTSS (R14), Y12; \
	VADDPS       Y12, Y0, Y0; \
nobias: \
	VMAXPS       Y0, Y13, Y0; \
	VMOVUPS      Y0, (R13); \
	ADDQ         $4, AX; \
	ADDQ         $4, R14; \
	ADDQ         R10, R13; \
	DECQ         R15; \
	JZ           done; \
	DECQ         CX; \
	JNZ          row; \
	ADDQ         BX, AX; \
	MOVQ         $8, CX; \
	JMP          row

// Start a chunk's row loop at row 0 of A, C and bias.
#define SMALLK_ROWS_INIT \
	MOVQ SI, AX; \
	MOVQ DX, R13; \
	MOVQ R12, R14; \
	MOVQ R9, R15; \
	MOVQ $8, CX

// One k step of a row: broadcast A[i,p] (off = 32·p bytes into the
// panel) and fuse it with the chunk's B row p, held in brow, into Y0 — the
// tile kernel's VFMADD231PS operand order, so NaN payloads match too.
#define SMALLK_STEP(off, brow) \
	VBROADCASTSS off(AX), Y12; \
	VFMADD231PS  brow, Y12, Y0

// Step to the next 8-column chunk of B and C; loop while chunks remain.
#define SMALLK_NEXT_CHUNK(chunk) \
	ADDQ $32, DI; \
	ADDQ $32, DX; \
	DECQ R11; \
	JNZ  chunk; \
	JMP  skdone

// func smallKAsm(k int, a, b *float32, ldb int, c *float32, ldc, m, chunks int, bias *float32, relu int)
//
// The small-K block kernel: C[i, j] = act(bias[i] + Σ_{p<k} a[i,p]·b[p, j])
// for i < m and j < 8·chunks, one call for a whole pre-packed A. a is the
// MR=8 packed A (A[i,p] at (i/8)·32k + 32p + 4·(i%8) bytes), b the
// row-major B (row stride ldb elements), c the row-major C (ldc), bias m
// values or nil, relu != 0 clamps at +0. For each 8-column chunk the k B
// vectors stay in Y8–Y11 while the row loop runs; each row's accumulator
// Y0 starts at +0 and takes one FMA per p in p order, so every element
// rounds exactly as in tileKernelAsm with alpha 1 in the overwrite or bias
// mode. 1 <= k <= 4, m >= 1, chunks >= 1.
TEXT ·smallKAsm(SB), NOSPLIT, $0-80
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ ldb+24(FP), R8
	SHLQ $2, R8        // B row stride in bytes
	MOVQ c+32(FP), DX
	MOVQ ldc+40(FP), R10
	SHLQ $2, R10       // C row stride in bytes
	MOVQ m+48(FP), R9
	MOVQ chunks+56(FP), R11
	MOVQ bias+64(FP), R12

	// Floor for the store clamp: +0 applies ReLU, -Inf is the identity.
	VXORPS       Y13, Y13, Y13
	CMPQ         relu+72(FP), $0
	JNE          skpanel
	VBROADCASTSS negInf<>(SB), Y13

skpanel:
	LEAQ -1(CX), BX
	SHLQ $5, BX        // 32·(k-1): past the panel's other columns
	CMPQ CX, $2
	JLT  sk1chunk
	JEQ  sk2chunk
	CMPQ CX, $3
	JEQ  sk3chunk

sk4chunk:
	VMOVUPS (DI), Y8
	VMOVUPS (DI)(R8*1), Y9
	VMOVUPS (DI)(R8*2), Y10
	LEAQ    (DI)(R8*2), AX
	VMOVUPS (AX)(R8*1), Y11
	SMALLK_ROWS_INIT

sk4row:
	VXORPS Y0, Y0, Y0
	SMALLK_STEP(0, Y8)
	SMALLK_STEP(32, Y9)
	SMALLK_STEP(64, Y10)
	SMALLK_STEP(96, Y11)
	SMALLK_ROW_END(sk4nobias, sk4row, sk4next)

sk4next:
	SMALLK_NEXT_CHUNK(sk4chunk)

sk3chunk:
	VMOVUPS (DI), Y8
	VMOVUPS (DI)(R8*1), Y9
	VMOVUPS (DI)(R8*2), Y10
	SMALLK_ROWS_INIT

sk3row:
	VXORPS Y0, Y0, Y0
	SMALLK_STEP(0, Y8)
	SMALLK_STEP(32, Y9)
	SMALLK_STEP(64, Y10)
	SMALLK_ROW_END(sk3nobias, sk3row, sk3next)

sk3next:
	SMALLK_NEXT_CHUNK(sk3chunk)

sk2chunk:
	VMOVUPS (DI), Y8
	VMOVUPS (DI)(R8*1), Y9
	SMALLK_ROWS_INIT

sk2row:
	VXORPS Y0, Y0, Y0
	SMALLK_STEP(0, Y8)
	SMALLK_STEP(32, Y9)
	SMALLK_ROW_END(sk2nobias, sk2row, sk2next)

sk2next:
	SMALLK_NEXT_CHUNK(sk2chunk)

sk1chunk:
	VMOVUPS (DI), Y8
	SMALLK_ROWS_INIT

sk1row:
	VXORPS Y0, Y0, Y0
	SMALLK_STEP(0, Y8)
	SMALLK_ROW_END(sk1nobias, sk1row, sk1next)

sk1next:
	SMALLK_NEXT_CHUNK(sk1chunk)

skdone:
	VZEROUPPER
	RET

// func convRowAccumAsm(dst, x, w *float32, n, rows, kw, xStride int)
//
// dst[j] += Σ_{r<rows} Σ_{c<kw} w[r·kw+c] · x[r·xStride+c+j] for j < n.
// Unlike the GEMM tile above this kernel deliberately uses separate
// VMULPS/VADDPS (two roundings per term, in (r,c) order per lane), so its
// results are bit-identical to the portable scalar loop and to the direct
// convolution's per-sample path — vector lanes are independent output
// elements, never a reassociated sum. rows, kw and n must be >= 1.
TEXT ·convRowAccumAsm(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DX
	MOVQ x+8(FP), SI
	MOVQ w+16(FP), DI
	MOVQ n+24(FP), CX
	MOVQ rows+32(FP), R11
	MOVQ kw+40(FP), R12
	MOVQ xStride+48(FP), R13
	SHLQ $2, R13       // x row stride in bytes

crblock:
	CMPQ CX, $8
	JLT  crtail
	VMOVUPS (DX), Y0
	MOVQ    DI, R8     // weight cursor
	MOVQ    SI, R9     // x row cursor
	MOVQ    R11, R14   // remaining rows

crrow:
	MOVQ R9, R10       // x element cursor
	MOVQ R12, R15      // remaining taps in the row

crcol:
	VBROADCASTSS (R8), Y2
	VMOVUPS      (R10), Y1
	VMULPS       Y1, Y2, Y1
	VADDPS       Y1, Y0, Y0
	ADDQ         $4, R8
	ADDQ         $4, R10
	DECQ         R15
	JNE          crcol

	ADDQ R13, R9
	DECQ R14
	JNE  crrow

	VMOVUPS Y0, (DX)
	ADDQ    $32, DX
	ADDQ    $32, SI
	SUBQ    $8, CX
	JMP     crblock

crtail:
	// Four-wide XMM block for sub-YMM runs (the 4×4 feature planes of the
	// deepest conv layers land here): same ordering guarantees as above.
	CMPQ    CX, $4
	JLT     crscalar
	VMOVUPS (DX), X0
	MOVQ    DI, R8
	MOVQ    SI, R9
	MOVQ    R11, R14

cr4row:
	MOVQ R9, R10
	MOVQ R12, R15

cr4col:
	VBROADCASTSS (R8), X2
	VMOVUPS      (R10), X1
	VMULPS       X1, X2, X1
	VADDPS       X1, X0, X0
	ADDQ         $4, R8
	ADDQ         $4, R10
	DECQ         R15
	JNE          cr4col

	ADDQ R13, R9
	DECQ R14
	JNE  cr4row

	VMOVUPS X0, (DX)
	ADDQ    $16, DX
	ADDQ    $16, SI
	SUBQ    $4, CX
	JMP     crtail

crscalar:
	TESTQ CX, CX
	JZ    crdone
	MOVSS (DX), X0
	MOVQ  DI, R8
	MOVQ  SI, R9
	MOVQ  R11, R14

crtrow:
	MOVQ R9, R10
	MOVQ R12, R15

crtcol:
	MOVSS (R8), X2
	MULSS (R10), X2
	ADDSS X2, X0
	ADDQ  $4, R8
	ADDQ  $4, R10
	DECQ  R15
	JNE   crtcol

	ADDQ R13, R9
	DECQ R14
	JNE  crtrow

	MOVSS X0, (DX)
	ADDQ  $4, DX
	ADDQ  $4, SI
	DECQ  CX
	JMP   crscalar

crdone:
	VZEROUPPER
	RET

// func maxPoolRowAsm(dst, src *float32, n, ld, kh, kw, sw int)
//
// One output row of a kh×kw max pool with column stride sw:
// dst[i] = max(-Inf, src[r·ld + i·sw + q]) over r < kh, q < kw, visiting
// candidates in (r, q) row-major order with the scalar first-wins tie
// rule: a candidate replaces the accumulator only when strictly greater
// (ordered compare, so NaN never replaces), implemented as
// VCMPPS(GT_OQ)+VBLENDVPS rather than VMAXPS, whose tie rule would flip
// -0/+0 results. Eight outputs per block; a candidate's eight lanes are
// one load for sw = 1, two overlapping loads compacted by VPERMPS for
// sw = 2, and a gather for any wider stride. No load reaches past the
// last element a block reads. Processes ⌊n/8⌋ blocks; the caller handles
// the remainder. n must be >= 8; kh, kw, sw >= 1.
TEXT ·maxPoolRowAsm(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DX
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ ld+24(FP), R8
	SHLQ $2, R8        // row stride in bytes
	MOVQ kh+32(FP), R9
	MOVQ kw+40(FP), R10
	MOVQ sw+48(FP), R11

	VBROADCASTSS negInf<>(SB), Y7
	VMOVDQU      mpPerm<>(SB), Y6 // even lanes of a load, then its odd lanes
	VMOVQ        R11, X5
	VPBROADCASTD X5, Y5
	VPMULLD      mpIota<>(SB), Y5, Y5 // gather offsets i·sw
	MOVQ         R11, BX
	SHLQ         $5, BX              // source step per block: 8·sw floats

mpblock:
	VMOVAPS Y7, Y0 // acc = -Inf
	MOVQ    SI, R12
	MOVQ    R9, R13

mprow:
	MOVQ R12, R14
	MOVQ R10, R15

mpcol:
	CMPQ    R11, $2
	JEQ     mpstride2
	JGT     mpgather
	VMOVUPS (R14), Y2
	JMP     mpmax

mpstride2:
	// Lanes 0–3 are elements 0,2,4,6 of the load at the candidate and
	// lanes 4–7 elements 1,3,5,7 of the load seven floats on (source
	// offsets 8..14), so the pair reads exactly offsets 0..14.
	VMOVUPS   (R14), Y2
	VMOVUPS   28(R14), Y3
	VPERMPS   Y2, Y6, Y2
	VPERMPS   Y3, Y6, Y3
	VBLENDPS  $0xF0, Y3, Y2, Y2
	JMP       mpmax

mpgather:
	VPCMPEQD   Y4, Y4, Y4
	VGATHERDPS Y4, (R14)(Y5*4), Y2

mpmax:
	VCMPPS    $0x1E, Y0, Y2, Y1
	VBLENDVPS Y1, Y2, Y0, Y0
	ADDQ      $4, R14
	DECQ      R15
	JNE       mpcol

	ADDQ R8, R12
	DECQ R13
	JNE  mprow

	VMOVUPS Y0, (DX)
	ADDQ    $32, DX
	ADDQ    BX, SI
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     mpblock
	VZEROUPPER
	RET

DATA negInf<>+0(SB)/4, $0xFF800000 // float32 -Inf
GLOBL negInf<>(SB), RODATA|NOPTR, $4

DATA mpPerm<>+0(SB)/4, $0
DATA mpPerm<>+4(SB)/4, $2
DATA mpPerm<>+8(SB)/4, $4
DATA mpPerm<>+12(SB)/4, $6
DATA mpPerm<>+16(SB)/4, $1
DATA mpPerm<>+20(SB)/4, $3
DATA mpPerm<>+24(SB)/4, $5
DATA mpPerm<>+28(SB)/4, $7
GLOBL mpPerm<>(SB), RODATA|NOPTR, $32

DATA mpIota<>+0(SB)/4, $0
DATA mpIota<>+4(SB)/4, $1
DATA mpIota<>+8(SB)/4, $2
DATA mpIota<>+12(SB)/4, $3
DATA mpIota<>+16(SB)/4, $4
DATA mpIota<>+20(SB)/4, $5
DATA mpIota<>+24(SB)/4, $6
DATA mpIota<>+28(SB)/4, $7
GLOBL mpIota<>(SB), RODATA|NOPTR, $32

// func convRowAccumQuadAsm(d0, d1, d2, d3, x0, x1, x2, x3, w *float32, n, rows, kw, xStride int)
//
// Four samples of convRowAccumAsm in lock-step: dk[j] += Σ w[r·kw+c] ·
// xk[r·xStride+c+j]. One weight broadcast feeds all four samples' rows,
// and per sample the tap order and rounding (separate multiply and add)
// are exactly those of the single-sample kernel, so results are
// bit-identical to four independent calls. rows, kw and n must be >= 1.
TEXT ·convRowAccumQuadAsm(SB), NOSPLIT, $0-104
	MOVQ d0+0(FP), DX
	MOVQ d1+8(FP), BX
	MOVQ d2+16(FP), R12
	MOVQ d3+24(FP), R13
	MOVQ x0+32(FP), SI
	MOVQ x1+40(FP), DI
	MOVQ x2+48(FP), R10
	MOVQ x3+56(FP), R11
	MOVQ n+72(FP), CX

qblock:
	CMPQ    CX, $8
	JLT     qtail
	VMOVUPS (DX), Y0
	VMOVUPS (BX), Y1
	VMOVUPS (R12), Y2
	VMOVUPS (R13), Y3
	MOVQ    w+64(FP), R8
	XORQ    R9, R9
	MOVQ    rows+80(FP), R14

qrow:
	MOVQ R9, AX
	MOVQ kw+88(FP), R15

qcol:
	VBROADCASTSS (R8), Y4
	VMOVUPS      (SI)(AX*1), Y5
	VMULPS       Y5, Y4, Y5
	VADDPS       Y5, Y0, Y0
	VMOVUPS      (DI)(AX*1), Y5
	VMULPS       Y5, Y4, Y5
	VADDPS       Y5, Y1, Y1
	VMOVUPS      (R10)(AX*1), Y5
	VMULPS       Y5, Y4, Y5
	VADDPS       Y5, Y2, Y2
	VMOVUPS      (R11)(AX*1), Y5
	VMULPS       Y5, Y4, Y5
	VADDPS       Y5, Y3, Y3
	ADDQ         $4, R8
	ADDQ         $4, AX
	DECQ         R15
	JNE          qcol

	MOVQ xStride+96(FP), R15
	SHLQ $2, R15
	ADDQ R15, R9
	DECQ R14
	JNE  qrow

	VMOVUPS Y0, (DX)
	VMOVUPS Y1, (BX)
	VMOVUPS Y2, (R12)
	VMOVUPS Y3, (R13)
	ADDQ    $32, DX
	ADDQ    $32, BX
	ADDQ    $32, R12
	ADDQ    $32, R13
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R10
	ADDQ    $32, R11
	SUBQ    $8, CX
	JMP     qblock

qtail:
	CMPQ    CX, $4
	JLT     qscalar
	VMOVUPS (DX), X0
	VMOVUPS (BX), X1
	VMOVUPS (R12), X2
	VMOVUPS (R13), X3
	MOVQ    w+64(FP), R8
	XORQ    R9, R9
	MOVQ    rows+80(FP), R14

q4row:
	MOVQ R9, AX
	MOVQ kw+88(FP), R15

q4col:
	VBROADCASTSS (R8), X4
	VMOVUPS      (SI)(AX*1), X5
	VMULPS       X5, X4, X5
	VADDPS       X5, X0, X0
	VMOVUPS      (DI)(AX*1), X5
	VMULPS       X5, X4, X5
	VADDPS       X5, X1, X1
	VMOVUPS      (R10)(AX*1), X5
	VMULPS       X5, X4, X5
	VADDPS       X5, X2, X2
	VMOVUPS      (R11)(AX*1), X5
	VMULPS       X5, X4, X5
	VADDPS       X5, X3, X3
	ADDQ         $4, R8
	ADDQ         $4, AX
	DECQ         R15
	JNE          q4col

	MOVQ xStride+96(FP), R15
	SHLQ $2, R15
	ADDQ R15, R9
	DECQ R14
	JNE  q4row

	VMOVUPS X0, (DX)
	VMOVUPS X1, (BX)
	VMOVUPS X2, (R12)
	VMOVUPS X3, (R13)
	ADDQ    $16, DX
	ADDQ    $16, BX
	ADDQ    $16, R12
	ADDQ    $16, R13
	ADDQ    $16, SI
	ADDQ    $16, DI
	ADDQ    $16, R10
	ADDQ    $16, R11
	SUBQ    $4, CX
	JMP     qtail

qscalar:
	TESTQ CX, CX
	JZ    qdone
	MOVSS (DX), X0
	MOVSS (BX), X1
	MOVSS (R12), X2
	MOVSS (R13), X3
	MOVQ  w+64(FP), R8
	XORQ  R9, R9
	MOVQ  rows+80(FP), R14

qsrow:
	MOVQ R9, AX
	MOVQ kw+88(FP), R15

qscol:
	MOVSS (R8), X4
	MOVSS (SI)(AX*1), X5
	MULSS X4, X5
	ADDSS X5, X0
	MOVSS (DI)(AX*1), X5
	MULSS X4, X5
	ADDSS X5, X1
	MOVSS (R10)(AX*1), X5
	MULSS X4, X5
	ADDSS X5, X2
	MOVSS (R11)(AX*1), X5
	MULSS X4, X5
	ADDSS X5, X3
	ADDQ  $4, R8
	ADDQ  $4, AX
	DECQ  R15
	JNE   qscol

	MOVQ xStride+96(FP), R15
	SHLQ $2, R15
	ADDQ R15, R9
	DECQ R14
	JNE  qsrow

	MOVSS X0, (DX)
	MOVSS X1, (BX)
	MOVSS X2, (R12)
	MOVSS X3, (R13)
	ADDQ  $4, DX
	ADDQ  $4, BX
	ADDQ  $4, R12
	ADDQ  $4, R13
	ADDQ  $4, SI
	ADDQ  $4, DI
	ADDQ  $4, R10
	ADDQ  $4, R11
	DECQ  CX
	JMP   qscalar

qdone:
	VZEROUPPER
	RET

// func reluAsm(p *float32, n int)
//
// p[i] = (0 > p[i]) ? +0 : p[i] — exactly the scalar `if v < 0 { v = 0 }`:
// MAXPS with +0 as the first operand returns the second on ties and
// unordered, so -0 and NaN pass through unchanged while negatives become
// +0. The scalar tail stays VEX-encoded (VMOVSS/VMAXSS): a legacy-SSE
// instruction after the 256-bit loop would pay an AVX→SSE transition.
// n must be >= 1.
TEXT ·reluAsm(SB), NOSPLIT, $0-16
	MOVQ   p+0(FP), SI
	MOVQ   n+8(FP), CX
	VXORPS Y1, Y1, Y1
	CMPQ   CX, $8
	JLT    rltail

rlblock:
	VMOVUPS (SI), Y0
	VMAXPS  Y0, Y1, Y0
	VMOVUPS Y0, (SI)
	ADDQ    $32, SI
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     rlblock

rltail:
	TESTQ CX, CX
	JZ    rldone
	VMOVSS (SI), X0
	VMAXSS X0, X1, X0
	VMOVSS X0, (SI)
	ADDQ   $4, SI
	DECQ   CX
	JMP    rltail

rldone:
	VZEROUPPER
	RET
