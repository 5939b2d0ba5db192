//! Backend profiles: CUDA/cuDNN versus HIP/MIOpen operator decomposition.
//!
//! The paper's Fig. 14 observes that "on the NVIDIA GPU, fewer
//! allocation/deallocation events are issued, but peak memory usage is
//! slightly higher than on the AMD GPU", attributing the difference to
//! operator decomposition and kernel-fusion strategies across
//! CUDA/cuDNN and HIP/MIOpen. [`BackendProfile`] captures exactly those
//! knobs: epilogue fusion (bias/activation folded into the GEMM) and
//! convolution workspace sizing.

use accel_sim::{Symbol, Vendor};

/// Longest kernel name composed on the stack (the longest the bundled
/// operators build is 61 bytes); a longer one is built as a `String`.
const NAME_BUF: usize = 128;

/// Interns the concatenation of `parts` without building it on the heap:
/// the per-thread front of [`Symbol::intern`] answers a name the lane has
/// launched before from the stack copy alone.
fn intern_concat(parts: &[&str]) -> Symbol {
    let mut buf = [0u8; NAME_BUF];
    let mut len = 0;
    for part in parts {
        let end = len + part.len();
        if end > NAME_BUF {
            return Symbol::intern(&parts.concat());
        }
        buf[len..end].copy_from_slice(part.as_bytes());
        len = end;
    }
    let name = std::str::from_utf8(&buf[..len]).expect("whole strs, concatenated, are UTF-8");
    Symbol::intern(name)
}

/// Vendor-specific operator decomposition profile.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendProfile {
    /// Which vendor's library stack this models.
    pub vendor: Vendor,
    /// cuBLASLt-style epilogue fusion: bias add (and ReLU/GELU) execute
    /// inside the GEMM kernel. MIOpen/rocBLAS decompose into separate
    /// kernels — more launches, more transient tensors.
    pub fused_epilogue: bool,
    /// Convolution workspace over-allocation factor (cuDNN reserves larger
    /// scratch for algorithm selection; this is what nudges NVIDIA peak
    /// memory above AMD's in Fig. 14).
    pub conv_workspace_factor: f64,
    /// GEMM kernel-name prefix (`ampere_sgemm` vs rocBLAS Tensile names).
    pub gemm_prefix: &'static str,
    /// Collective-communication kernel prefix (`nccl` vs `rccl`).
    pub nccl_prefix: &'static str,
}

impl BackendProfile {
    /// CUDA/cuDNN/cuBLAS profile (machines A and B in Table III).
    pub fn nvidia() -> Self {
        BackendProfile {
            vendor: Vendor::Nvidia,
            fused_epilogue: true,
            conv_workspace_factor: 1.25,
            gemm_prefix: "ampere_sgemm",
            nccl_prefix: "ncclDevKernel",
        }
    }

    /// HIP/MIOpen/rocBLAS profile (machine C).
    pub fn amd() -> Self {
        BackendProfile {
            vendor: Vendor::Amd,
            fused_epilogue: false,
            conv_workspace_factor: 1.05,
            gemm_prefix: "Cijk_Ailk_Bljk_SB_MT128x64x8",
            nccl_prefix: "rcclDevKernel",
        }
    }

    /// Profile matching a device vendor.
    pub fn for_vendor(vendor: Vendor) -> Self {
        match vendor {
            Vendor::Amd => BackendProfile::amd(),
            _ => BackendProfile::nvidia(),
        }
    }

    /// GEMM kernel symbol for a tile flavour and a `suffix` naming the
    /// operand layout and any fused epilogue (`"_tn"`, `"_tn_relu"`):
    /// `"ampere_sgemm_128x64_tn_relu"`.
    pub(crate) fn gemm_kernel(&self, tile: &str, suffix: &str) -> Symbol {
        intern_concat(&[self.gemm_prefix, "_", tile, suffix])
    }

    /// Collective kernel symbol (e.g. `"ncclDevKernel_AllReduce_Sum_f32"`).
    pub(crate) fn collective_kernel(&self, op: &str) -> Symbol {
        intern_concat(&[self.nccl_prefix, "_", op, "_Sum_f32"])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nvidia_fuses_amd_does_not() {
        assert!(BackendProfile::nvidia().fused_epilogue);
        assert!(!BackendProfile::amd().fused_epilogue);
    }

    #[test]
    fn nvidia_reserves_bigger_workspaces() {
        assert!(
            BackendProfile::nvidia().conv_workspace_factor
                > BackendProfile::amd().conv_workspace_factor
        );
    }

    #[test]
    fn kernel_names_are_vendor_flavoured() {
        assert_eq!(
            BackendProfile::nvidia().gemm_kernel("128x64_tn", ""),
            "ampere_sgemm_128x64_tn"
        );
        assert!(BackendProfile::amd()
            .gemm_kernel("128x64_tn", "")
            .starts_with("Cijk_"));
        assert!(BackendProfile::nvidia()
            .collective_kernel("AllReduce")
            .starts_with("ncclDevKernel"));
        assert!(BackendProfile::amd()
            .collective_kernel("AllReduce")
            .starts_with("rcclDevKernel"));
    }

    /// Every tile label the operators, layers and models give an
    /// `ops::Gemm`.
    const TILES: [&str; 11] = [
        "128x64",
        "128x64_dgrad",
        "128x64_wgrad",
        "64x64_attn_qk",
        "64x64_attn_pv",
        "64x64_attn_qk_recompute",
        "64x64_attn_bwd",
        "64x64_xattn_qk",
        "64x64_xattn_pv",
        "64x64_xattn_qk_recompute",
        "64x64_xattn_bwd",
    ];

    #[test]
    fn composed_names_equal_what_format_built() {
        for backend in [BackendProfile::nvidia(), BackendProfile::amd()] {
            for tile in TILES {
                for act in ["", "_relu", "_gelu"] {
                    // What three nested `format!`s (`{tile}_tn`,
                    // `{prefix}_{..}`, `{..}{act}`) build.
                    let expected = format!("{}_{tile}_tn{act}", backend.gemm_prefix);
                    let name = backend.gemm_kernel(tile, &format!("_tn{act}"));
                    assert_eq!(name.as_str(), expected);
                    assert!(name.len() <= NAME_BUF, "composed on the stack");
                    assert!(
                        Symbol::ptr_eq(&name, &Symbol::intern(&expected)),
                        "one interned name, however it was spelled"
                    );
                }
            }
            for op in ["AllReduce_RING_LL", "AllToAll", "SendRecv"] {
                let expected = format!("{}_{op}_Sum_f32", backend.nccl_prefix);
                assert_eq!(backend.collective_kernel(op).as_str(), expected);
            }
        }
    }

    #[test]
    fn an_over_long_name_comes_back_whole() {
        let tile = "x".repeat(3 * NAME_BUF);
        for backend in [BackendProfile::nvidia(), BackendProfile::amd()] {
            let name = backend.gemm_kernel(&tile, "_tn_gelu");
            assert_eq!(
                name.as_str(),
                format!("{}_{tile}_tn_gelu", backend.gemm_prefix)
            );
            let op = backend.collective_kernel(&tile);
            assert_eq!(
                op.as_str(),
                format!("{}_{tile}_Sum_f32", backend.nccl_prefix)
            );
        }
        // One byte past the buffer takes the fallback; exactly full does not.
        let nv = BackendProfile::nvidia();
        let room = NAME_BUF - nv.gemm_prefix.len() - 1;
        for len in [room - 1, room, room + 1] {
            let tile = "y".repeat(len);
            let name = nv.gemm_kernel(&tile, "");
            assert_eq!(name.as_str(), format!("ampere_sgemm_{tile}"));
        }
    }

    #[test]
    fn for_vendor_maps() {
        assert_eq!(BackendProfile::for_vendor(Vendor::Amd).vendor, Vendor::Amd);
        assert_eq!(
            BackendProfile::for_vendor(Vendor::Nvidia).vendor,
            Vendor::Nvidia
        );
    }
}
