//! Q3 (§4.1.2): fakeroot mechanisms — user namespaces vs LD_PRELOAD vs
//! ptrace, including the documented failure modes.

use hpcc_runtime::caps::{CapSet, Capability};
use hpcc_runtime::fakeroot::{self, FakerootCosts, FakerootMode, HostConfig, SyscallWorkload};
use hpcc_sim::{SimClock, SimSpan};
use std::io::{self, Write};

pub(crate) fn run(out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "Q3 — fakeroot mechanism overheads (§4.1.2)\n")?;
    let workloads = [
        (
            "build (syscall-heavy)",
            SyscallWorkload {
                intercepted_syscalls: 400_000,
                other_syscalls: 1_600_000,
                compute: SimSpan::millis(200),
                static_binary: false,
            },
        ),
        (
            "compute-bound",
            SyscallWorkload {
                intercepted_syscalls: 5_000,
                other_syscalls: 20_000,
                compute: SimSpan::secs(2),
                static_binary: false,
            },
        ),
        (
            "static binary",
            SyscallWorkload {
                intercepted_syscalls: 100_000,
                other_syscalls: 400_000,
                compute: SimSpan::millis(50),
                static_binary: true,
            },
        ),
    ];

    let ptrace_caps = CapSet::empty().with(Capability::SysPtrace);
    writeln!(
        out,
        "{:<22} {:>12} {:>12} {:>12}",
        "workload", "UserNS", "LD_PRELOAD", "ptrace"
    )?;
    for (name, wl) in workloads {
        let mut cells = Vec::new();
        for (mode, caps) in [
            (FakerootMode::UserNs, CapSet::empty()),
            (FakerootMode::LdPreload, CapSet::empty()),
            (FakerootMode::Ptrace, ptrace_caps.clone()),
        ] {
            let clock = SimClock::new();
            match fakeroot::run(
                mode,
                wl,
                &caps,
                HostConfig::default(),
                FakerootCosts::default(),
                &clock,
            ) {
                Ok(span) => cells.push(format!("{span}")),
                Err(e) => cells.push(format!("FAILS ({e})")),
            }
        }
        writeln!(
            out,
            "{:<22} {:>12} {:>12} {:>12}",
            name, cells[0], cells[1], cells[2]
        )?;
    }

    writeln!(out, "\nptrace without CAP_SYS_PTRACE:")?;
    let clock = SimClock::new();
    match fakeroot::run(
        FakerootMode::Ptrace,
        workloads[0].1,
        &CapSet::empty(),
        HostConfig::default(),
        FakerootCosts::default(),
        &clock,
    ) {
        Err(e) => writeln!(out, "  refused as expected: {e}")?,
        Ok(_) => writeln!(out, "  UNEXPECTEDLY SUCCEEDED")?,
    }
    writeln!(out, "\nuser namespaces disabled on host:")?;
    let clock = SimClock::new();
    match fakeroot::run(
        FakerootMode::UserNs,
        workloads[0].1,
        &CapSet::empty(),
        HostConfig {
            userns_enabled: false,
        },
        FakerootCosts::default(),
        &clock,
    ) {
        Err(e) => writeln!(out, "  refused as expected: {e}")?,
        Ok(_) => writeln!(out, "  UNEXPECTEDLY SUCCEEDED")?,
    }
    Ok(())
}
