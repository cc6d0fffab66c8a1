//! Property: a job that the service preempts (checkpoints, migrates to a
//! fresh engine/cluster pair, and resumes — possibly several times, under
//! quota pressure and with an active fault injector) produces exactly the
//! same output bits, executed cycles and fault telemetry as the same job
//! run alone on an idle service.

use proptest::prelude::*;
use redmule::{AccelConfig, Engine, FaultSite, Format, FunctionalGemm};
use redmule_fp16::vector::GemmShape;
use redmule_service::{ServiceConfig, ServiceSim, ServiceStatus, Submission, TenantConfig};

fn small_cfg() -> AccelConfig {
    AccelConfig::new(4, 2, 1)
}

fn sim(config: ServiceConfig) -> ServiceSim {
    ServiceSim::new(config)
        .expect("valid config")
        .with_engine(Engine::new(small_cfg()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn preempt_migrate_resume_is_bit_exact_under_pressure(
        m in 2usize..8,
        n in 1usize..8,
        k in 4usize..14,
        seed in any::<u32>(),
        strike_count in 0usize..3,
        strike_cycle in 1u64..300,
        strike_bit in 0u8..16,
        interrupts in 1usize..4,
        spread in 3u64..9,
    ) {
        let shape = GemmShape::new(m, n, k);
        let est = FunctionalGemm::new(small_cfg())
            .estimated_cycles_format(shape, Format::Fp16)
            .count();
        let strikes: Vec<(u64, FaultSite)> = (0..strike_count)
            .map(|j| {
                (
                    strike_cycle + j as u64 * 37,
                    FaultSite::Pipe {
                        col: (j + 1) % 4,
                        row: j % 2,
                        stage: 0,
                        bit: strike_bit,
                    },
                )
            })
            .collect();
        let victim = Submission::new(1, 0, 0, shape)
            .with_seed(seed)
            .with_faults(strikes);

        // Reference: the victim alone on an idle single-server service.
        let solo_cfg = ServiceConfig::new(1).with_tenant(TenantConfig::new(0));
        let solo = sim(solo_cfg)
            .run(std::slice::from_ref(&victim))
            .expect("solo run");
        let solo = &solo.jobs[0];

        // Loaded run: the victim's tenant is quota-capped to one job (so
        // its later submissions are rejected while the victim is still in
        // flight), and a higher-priority tenant fires tight-deadline
        // interrupts mid-run that preempt the victim at varying points.
        let cfg = ServiceConfig::new(1)
            .with_tenant(TenantConfig::new(0).with_priority(1).with_max_in_flight(1))
            .with_tenant(TenantConfig::new(7).with_priority(5));
        let short = GemmShape::new(1, 1, 2);
        let short_est = FunctionalGemm::new(small_cfg())
            .estimated_cycles_format(short, Format::Fp16)
            .count();
        let mut script = vec![victim.clone()];
        for i in 0..interrupts {
            let at = (i as u64 + 1) * est / spread;
            script.push(
                Submission::new(100 + i as u64, 7, at, short)
                    .with_deadline_cycle(at + short_est + 2),
            );
            // Quota pressure: a same-tenant submission that must bounce.
            script.push(Submission::new(200 + i as u64, 0, at + 1, short));
        }
        let loaded = sim(cfg).run(&script).expect("loaded run");
        let job = loaded
            .jobs
            .iter()
            .find(|j| j.id == 1)
            .expect("victim record");

        prop_assert!(
            loaded.rejected.iter().any(|r| r.tenant == 0),
            "quota pressure must actually reject tenant-0 work"
        );
        prop_assert_eq!(&job.status, &solo.status, "terminal state differs");
        if job.status == ServiceStatus::Completed {
            prop_assert_eq!(job.z_fnv64, solo.z_fnv64, "output bits differ");
            prop_assert_eq!(
                job.executed_cycles, solo.executed_cycles,
                "cycle count differs"
            );
            prop_assert_eq!(
                job.fault_events, solo.fault_events,
                "fault telemetry differs"
            );
            prop_assert_eq!(job.tiles_done, solo.tiles_done);
        }
    }
}
