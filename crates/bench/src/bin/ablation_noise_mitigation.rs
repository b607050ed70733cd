//! Ablation — Sec. VI noise mitigation.
//!
//! Measures covert-channel error in three conditions: quiet GPU, a noisy
//! co-located tenant hammering the target L2, and the same tenant locked
//! out by saturating SM shared memory (the leftover-policy mitigation).

use gpubox_attacks::covert::bits_from_bytes;
use gpubox_attacks::mitigation::{typical_noise_kernel, ExclusiveOccupancy};
use gpubox_attacks::{BoundaryPolicy, ChannelParams, ChannelReport, Pipeline, Transmission};
use gpubox_bench::{report, AttackSetup};
use gpubox_sim::{Agent, Engine, GpuId, NoiseAgent, NoiseConfig};

/// Thread blocks of the noise tenant's kernel: each is an independent
/// engine agent hammering the tenant's buffer, like a real grid.
const NOISE_BLOCKS: usize = 8;

/// Golden `(bit_errors, fnv1a(received))` per condition — quiet,
/// noisy, mitigated — captured at commit 5dbd860, before the
/// transmission moved onto the shared staged path. Any drift is a
/// regression.
const GOLDEN: [(usize, u64); 3] = [
    (4, 0x9950_be8d_f7fb_7a9c),
    (112, 0xaf19_619a_1fdf_4b78),
    (4, 0x9950_be8d_f7fb_7a9c),
];

fn run_with_noise(setup: &mut AttackSetup, noise_active: bool, payload: &[u8]) -> ChannelReport {
    let pairs = setup.aligned_pairs(4);
    // The noise tenant owns a 2 MiB buffer on the target GPU.
    let noise_pid = setup.sys.create_process(GpuId::new(0));
    let nbuf = setup
        .sys
        .malloc_on(noise_pid, GpuId::new(0), 2 << 20)
        .expect("noise buffer");
    let blocks: Vec<Box<dyn Agent>> = (0..NOISE_BLOCKS)
        .map(|b| {
            let mut a = NoiseAgent::new(
                noise_pid,
                nbuf,
                (2 << 20) / 128,
                128,
                NoiseConfig {
                    burst_len: 64,
                    idle_between_bursts: 1_500,
                    seed: 5 + b as u64,
                },
            );
            if !noise_active {
                a.deactivate();
            }
            Box::new(a) as Box<dyn Agent>
        })
        .collect();
    // The channel's lanes first, the noise blocks after them: the
    // engine breaks clock ties by insertion order.
    let medium = setup.medium(&pairs);
    let params = ChannelParams::default();
    let vote = Pipeline::vote(BoundaryPolicy::TwoMeans);
    let mut tx =
        Transmission::prepare(&mut setup.sys, &medium, payload, &params, &vote).expect("prepare");
    let mut eng = Engine::new(&mut setup.sys);
    tx.install(&mut eng, 0);
    for a in blocks {
        eng.add_agent(a, 0);
    }
    let end = eng.run(tx.grace_end()).expect("engine run");
    drop(eng);
    tx.report(&setup.sys, end)
}

fn main() {
    report::header(
        "Ablation — Sec. VI noise mitigation (SM shared-memory saturation)",
        "noisy tenant vs. tenant locked out by idle 32 KiB blocks",
    );
    let payload = bits_from_bytes(b"noise mitigation ablation: the quick brown fox 0123456789");

    let quiet = {
        let mut setup = AttackSetup::prepare(600);
        run_with_noise(&mut setup, false, &payload)
    };
    let noisy = {
        let mut setup = AttackSetup::prepare(600);
        run_with_noise(&mut setup, true, &payload)
    };
    let mitigated = {
        let mut setup = AttackSetup::prepare(600);
        // Saturate GPU0's SMs; verify the noise kernel cannot launch, so
        // its agent stays inactive.
        let occ =
            ExclusiveOccupancy::establish(&mut setup.sys, GpuId::new(0), 32).expect("saturate SMs");
        let blocked = occ.excludes(&setup.sys, &typical_noise_kernel());
        assert!(blocked, "mitigation must block the noise kernel");
        let rep = run_with_noise(&mut setup, !blocked, &payload);
        occ.release(&mut setup.sys);
        rep
    };

    let reports = [quiet, noisy, mitigated];
    let got: Vec<(usize, u64)> = reports
        .iter()
        .map(|r| (r.bit_errors, report::fnv1a_bits(&r.received)))
        .collect();
    assert_eq!(got, GOLDEN, "decoded streams diverged from the golden");
    let labels = ["quiet GPU", "noisy tenant", "noisy tenant + mitigation"];
    let rows: Vec<(String, String)> = labels
        .iter()
        .zip(&reports)
        .map(|(l, r)| (l.to_string(), format!("{:.2}%", r.error_rate * 100.0)))
        .collect();
    report::table2("condition", "bit error rate", &rows);
    println!(
        "\nthe mitigation launches idle thread blocks that consume the other\n\
         32 KiB of per-SM shared memory, so the leftover policy cannot place\n\
         the tenant's blocks; channel error returns to the quiet level."
    );
}
