//! What the output header records about the machine.

/// Hardware threads available to this process (1 if unknown).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The widest SIMD level the join kernels dispatch to on this CPU (the
/// same runtime detection `sj_base::simd` performs).
pub fn simd_level() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            "avx2"
        } else {
            "sse2"
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "scalar"
    }
}

/// The CPU's brand string, read with CPUID so no file outside the
/// benchmark's directory is opened.
#[cfg(target_arch = "x86_64")]
pub fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;

    let max_ext = __cpuid(0x8000_0000).eax;
    if max_ext < 0x8000_0004 {
        return "unknown".to_string();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002..=0x8000_0004u32 {
        let r = __cpuid(leaf);
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    let text = String::from_utf8_lossy(&bytes);
    text.trim_matches(char::from(0)).trim().to_string()
}

#[cfg(not(target_arch = "x86_64"))]
pub fn cpu_model() -> String {
    "unknown".to_string()
}
