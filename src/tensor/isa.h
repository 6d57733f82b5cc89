#ifndef ADAMGNN_TENSOR_ISA_H_
#define ADAMGNN_TENSOR_ISA_H_

#include <string>

#include "util/status.h"

// Runtime ISA selection for the kernel backend. The library ships two
// kernel variants compiled in separate translation units (scalar and
// AVX2+FMA); at process start the dispatcher probes the CPU and picks the
// widest supported one. `ADAMGNN_ISA=scalar|avx2` (env) or `--isa` (both
// CLIs) forces one variant for reproducibility across machines. An x86 CPU
// without AVX2+FMA runs the scalar variant.
//
// Determinism contract (see DESIGN.md "Kernel dispatch & determinism"):
//   - At a fixed ISA, every kernel is bitwise-identical across thread
//     counts.
//   - Sparse/reduction kernels (SpMM, SpMM^T, SegmentSum, IndexAddRows) and
//     the elementwise primitives avoid FMA contraction entirely, so they are
//     bitwise-identical across both ISAs.
//   - Dense GEMM differs on avx2 only through explicit FMA in the
//     microkernel: avx2 agrees with scalar within an ULP-bounded tolerance
//     (tests/isa_test.cc).

namespace adamgnn::tensor {

enum class Isa : int {
  kScalar = 0,  // portable C++, no vector intrinsics
  kAvx2 = 1,    // 256-bit lanes + FMA in the GEMM microkernel
};

// Every ISA, narrowest first.
inline constexpr Isa kAllIsas[] = {Isa::kScalar, Isa::kAvx2};

// Short lowercase name ("scalar", "avx2").
const char* IsaName(Isa isa);

// The accepted names joined by '|' ("scalar|avx2"), built from IsaName.
std::string IsaNames();

// Parses an ISA name; returns false (and leaves *out untouched) on an
// unknown name.
bool ParseIsa(const std::string& name, Isa* out);

// Widest ISA the running CPU supports. kScalar on non-x86 builds.
Isa BestSupportedIsa();

inline bool IsaSupported(Isa isa) {
  return static_cast<int>(isa) <= static_cast<int>(BestSupportedIsa());
}

// The ISA kernels currently dispatch to. Resolved on first use from
// ADAMGNN_ISA (falling back to BestSupportedIsa on an absent/invalid value,
// with a stderr warning for invalid ones).
Isa ActiveIsa();

// Forces the active ISA process-wide. Returns false (no change) if the CPU
// does not support it — callers forcing an ISA for reproducibility must
// fail loudly rather than silently compute different bits.
bool SetIsa(Isa isa);

// ParseIsa + SetIsa for a user-supplied name. InvalidArgument naming the
// accepted names (IsaNames) on an unknown name, FailedPrecondition naming
// the best supported ISA when the CPU cannot run it; no change on error.
util::Status SetIsaByName(const std::string& name);

// Space-separated CPU feature flags relevant to the backend (e.g.
// "avx avx2 fma"), for bench JSON provenance.
std::string CpuFeatureString();

}  // namespace adamgnn::tensor

#endif  // ADAMGNN_TENSOR_ISA_H_
