//! Benchmarks of the fault-injection machinery itself: tap overhead
//! (off / profiling) and end-to-end injected-run throughput. These bound
//! the cost of the instrumentation that the whole study rests on. Run
//! with `cargo bench -p vs-bench --bench injection`.

use std::hint::black_box;
use vs_bench::timing::bench;
use vs_core::experiments::{vs_workload, InputId, Scale};
use vs_core::Approximation;
use vs_fault::campaign::{self, CampaignConfig};
use vs_fault::spec::RegClass;
use vs_fault::{session, tap};

fn bench_tap_overhead() {
    bench("tap_gpr_off", || {
        let mut acc = 0u64;
        for i in 0..1000u64 {
            acc = acc.wrapping_add(tap::gpr(black_box(i)));
        }
        acc
    });
    {
        let _g = session::begin_profile();
        bench("tap_gpr_profiling", || {
            let mut acc = 0u64;
            for i in 0..1000u64 {
                acc = acc.wrapping_add(tap::gpr(black_box(i)));
            }
            acc
        });
    }
    {
        let _g = session::begin_profile();
        bench("tap_fpr_profiling", || {
            let mut acc = 0.0f64;
            for i in 0..1000u64 {
                acc += tap::fpr(black_box(i as f64));
            }
            acc
        });
    }
}

fn bench_injected_runs() {
    let w = vs_workload(InputId::Input2, Scale::Quick, Approximation::Baseline);
    bench("vs_golden_run_uninstrumented", || w.summarize().unwrap());
    let golden = campaign::profile_golden(&w).unwrap();
    bench("vs_campaign_8_injections", || {
        let cfg = CampaignConfig::new(RegClass::Gpr, 8)
            .seed(1)
            .threads(1)
            .keep_sdc_outputs(false);
        campaign::run_campaign(&w, &golden, &cfg)
    });
}

fn main() {
    bench_tap_overhead();
    bench_injected_runs();
}
