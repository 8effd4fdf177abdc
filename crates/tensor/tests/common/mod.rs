//! Shared by the kernel bit-identity suites.

use std::sync::{Mutex, Once, PoisonError};

use chimera_tensor::kernels::{self, SimdLevel};

/// Run `body` once per microkernel level this host supports, lowest first,
/// with `gemm_micro` capped to that level. Serialised — the cap is
/// process-global and tests run concurrently — so the level a body names is
/// the level that ran; prints the list once per binary (CI greps it, so the
/// log shows whether the 512-bit body was exercised).
pub fn at_every_level(mut body: impl FnMut(SimdLevel)) {
    static WALK: Mutex<()> = Mutex::new(());
    static PRINTED: Once = Once::new();
    // A failed assertion in another walk poisons the lock, not the cap.
    let _walk = WALK.lock().unwrap_or_else(PoisonError::into_inner);
    let levels = SimdLevel::supported();
    PRINTED.call_once(|| {
        let names: Vec<&str> = levels.iter().map(|l| l.name()).collect();
        println!("simd levels exercised: {}", names.join(", "));
    });
    for &level in levels {
        kernels::set_level_cap(level);
        assert_eq!(kernels::simd_level(), level);
        body(level);
    }
    kernels::set_level_cap(SimdLevel::Avx512);
}
