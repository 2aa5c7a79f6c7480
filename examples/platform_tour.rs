//! A tour of the ISIF platform facilities the flow meter's firmware uses
//! beside its measurement channels: the calibration EEPROM, telemetry
//! framing, and the watchdog.
//!
//! ```sh
//! cargo run --release --example platform_tour
//! ```

use hotwire::isif::uart::{encode_frame, FrameDecoder, FrameEvent};
use hotwire::isif::{CalibrationStore, IsifPlatform};
use hotwire::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut platform = IsifPlatform::new(Hertz::from_kilohertz(256.0));

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
