//! A tour of the ISIF platform facilities outside the flow-metering path:
//! configuration registers, the software-IP scheduler and its LEON cycle
//! budget, the calibration EEPROM, telemetry framing, and the watchdog.
//!
//! ```sh
//! cargo run --release --example platform_tour
//! ```

use hotwire::isif::regs::addr;
use hotwire::isif::sched::IpTask;
use hotwire::isif::uart::{encode_frame, FrameDecoder, FrameEvent};
use hotwire::isif::{CalibrationStore, IsifPlatform, Scheduler};
use hotwire::prelude::*;

/// A toy software IP: an integrator with a declared LEON cycle cost.
struct SoftIntegrator {
    name: String,
    acc: i64,
    input: i32,
}

impl IpTask for SoftIntegrator {
    fn name(&self) -> &str {
        &self.name
    }
    fn cycle_cost(&self) -> u32 {
        180
    }
    fn run(&mut self) {
        self.acc += self.input as i64;
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut platform = IsifPlatform::new(Hertz::from_kilohertz(256.0))?;

    // --- configuration registers (the JLCC-style config bus) ---
    platform.regs_mut().write(addr::DECIMATION, 256)?;
    platform.regs_mut().write(addr::CH0_GAIN, 50)?;
    platform.regs_mut().write(addr::PULSE_DUTY, 250)?; // per-mille
    println!("register journal: {:?}", platform.regs().journal());

    // --- software-IP scheduler with a LEON cycle budget ---
    let mut sched = Scheduler::new(40_000)?; // 40 MHz / 1 kHz control rate
    for i in 0..4 {
        sched.add_task(Box::new(SoftIntegrator {
            name: format!("iir{i}"),
            acc: 0,
            input: i,
        }));
    }
    for _ in 0..1000 {
        sched.tick();
    }
    println!(
        "scheduler: {} tasks, {:.1} % of the LEON budget used, {} overruns",
        sched.task_count(),
        sched.utilization() * 100.0,
        sched.overruns()
    );

    // --- calibration EEPROM with CRC ---
    let mut eeprom = CalibrationStore::new();
    eeprom.write_record(
        0,
        &CalibrationStore::encode_f64s(&[5.27e-4, 1.79e-3, 0.555]),
    )?;
    let king = CalibrationStore::decode_f64s(eeprom.read_record(0)?)?;
    println!("eeprom: King constants restored: {king:?}");

    // --- telemetry framing over a noisy line ---
    let mut wire = vec![0x00, 0x37, 0xA5]; // noise, incl. a fake SOH
    wire.extend(encode_frame(b"v=101.3cm/s dir=fwd")?);
    let mut decoder = FrameDecoder::new();
    let mut decoded = Vec::new();
    let mut sink = |event: FrameEvent<'_>| {
        if let FrameEvent::Payload(frame) = event {
            decoded.push(frame.to_vec());
        }
    };
    decoder.feed(&wire[..3], &mut sink);
    decoder.flush(&mut sink); // idle-line reset after the noise burst
    decoder.feed(&wire[3..], &mut sink);
    println!(
        "uart: {} frame(s) decoded: {:?}",
        decoded.len(),
        String::from_utf8_lossy(&decoded[0])
    );

    // --- watchdog ---
    let wd = platform.watchdog_mut();
    for _ in 0..100 {
        wd.kick();
        wd.tick();
    }
    println!(
        "watchdog: {} resets after 100 healthy ticks",
        wd.reset_count()
    );
    for _ in 0..40 {
        wd.tick(); // starved
    }
    println!("watchdog: {} resets after starvation", wd.reset_count());

    Ok(())
}
