//! Despiking and smoothing helpers.
//!
//! Bubble detachment produces isolated spikes in the conditioned signal
//! (paper §4); a short median kills them without the phase lag of a low-pass.
//! The boxcar moving average is the cheap smoother used by the telemetry
//! path.

use crate::error::DspError;

/// A 5-sample sliding median — removes up to two consecutive outliers.
///
/// ```
/// use hotwire_dsp::despike::Median5;
///
/// let mut m = Median5::new();
/// // A single spike in an otherwise flat stream never reaches the output.
/// let out: Vec<i32> = [10, 10, 9000, 10, 10, 10, 10].iter().map(|&x| m.push(x)).collect();
/// assert!(out.iter().all(|&y| y <= 10));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Median5 {
    window: [i32; 5],
    filled: usize,
    head: usize,
}

impl Median5 {
    /// Creates an empty median window.
    pub fn new() -> Self {
        Median5::default()
    }

    /// Pushes a sample and returns the median of the last five (during
    /// warm-up, the upper median of the samples so far).
    pub fn push(&mut self, x: i32) -> i32 {
        self.window[self.head] = x;
        self.head += 1;
        if self.head == 5 {
            self.head = 0;
        }
        if self.filled == 5 {
            // The median does not depend on the samples' order, so the
            // ring goes through the network as it lies.
            return median_of_five(self.window);
        }
        // Warm-up: the ring has not wrapped, so its first `filled` slots
        // hold every sample so far.
        self.filled += 1;
        let mut sorted = self.window;
        let sorted = &mut sorted[..self.filled];
        sorted.sort_unstable();
        sorted[self.filled / 2]
    }

    /// Clears the window.
    pub fn reset(&mut self) {
        *self = Median5::default();
    }
}

/// The median of five values through a fixed min/max network. The larger
/// of two pair minima and the smaller of the two pair maxima are the
/// middle two of those four values; the median of all five is the median
/// of those two and the fifth.
#[inline]
fn median_of_five([a, b, c, d, e]: [i32; 5]) -> i32 {
    let low = a.min(b).max(c.min(d));
    let high = a.max(b).min(c.max(d));
    e.min(low).max(e.max(low).min(high))
}

/// A boxcar moving average with a 64-bit running sum.
#[derive(Debug, Clone)]
pub struct MovingAverage {
    buf: Vec<i32>,
    head: usize,
    filled: usize,
    sum: i64,
}

impl MovingAverage {
    /// Creates an averager over `len` samples.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidConfig`] if `len` is zero.
    pub fn new(len: usize) -> Result<Self, DspError> {
        if len == 0 {
            return Err(DspError::InvalidConfig {
                name: "len",
                constraint: "must be at least 1",
            });
        }
        Ok(MovingAverage {
            buf: vec![0; len],
            head: 0,
            filled: 0,
            sum: 0,
        })
    }

    /// Window length.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if the window length is zero (never for a constructed value).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Pushes a sample and returns the mean of the window contents
    /// (round-half-away-from-zero).
    pub fn push(&mut self, x: i32) -> i32 {
        if self.filled == self.buf.len() {
            self.sum -= self.buf[self.head] as i64;
        } else {
            self.filled += 1;
        }
        self.buf[self.head] = x;
        self.sum += x as i64;
        self.head = (self.head + 1) % self.buf.len();
        let n = self.filled as i64;
        let half = if self.sum >= 0 { n / 2 } else { -(n / 2) };
        ((self.sum + half) / n) as i32
    }

    /// Clears the window.
    pub fn reset(&mut self) {
        self.buf.fill(0);
        self.head = 0;
        self.filled = 0;
        self.sum = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_kills_single_spike() {
        let mut m = Median5::new();
        for _ in 0..5 {
            m.push(100);
        }
        assert_eq!(m.push(50_000), 100);
        assert_eq!(m.push(100), 100);
    }

    #[test]
    fn median_kills_double_spike() {
        let mut m = Median5::new();
        for _ in 0..5 {
            m.push(100);
        }
        m.push(50_000);
        assert_eq!(m.push(50_000), 100);
    }

    #[test]
    fn median_tracks_steps() {
        let mut m = Median5::new();
        for _ in 0..5 {
            m.push(0);
        }
        for _ in 0..5 {
            m.push(1000);
        }
        assert_eq!(m.push(1000), 1000);
    }

    #[test]
    fn median_warm_up() {
        let mut m = Median5::new();
        assert_eq!(m.push(7), 7);
        assert_eq!(m.push(9), 9); // median of [7,9] (upper of two)
        assert_eq!(m.push(8), 8);
    }

    #[test]
    fn median_reset() {
        let mut m = Median5::new();
        m.push(100);
        m.push(200);
        m.reset();
        assert_eq!(m.push(5), 5);
    }

    #[test]
    fn moving_average_of_constant() {
        let mut avg = MovingAverage::new(8).unwrap();
        let mut y = 0;
        for _ in 0..20 {
            y = avg.push(1234);
        }
        assert_eq!(y, 1234);
    }

    #[test]
    fn moving_average_converges_on_step() {
        let mut avg = MovingAverage::new(4).unwrap();
        for _ in 0..4 {
            avg.push(0);
        }
        assert_eq!(avg.push(400), 100);
        assert_eq!(avg.push(400), 200);
        assert_eq!(avg.push(400), 300);
        assert_eq!(avg.push(400), 400);
    }

    #[test]
    fn moving_average_warmup_uses_partial_window() {
        let mut avg = MovingAverage::new(10).unwrap();
        assert_eq!(avg.push(100), 100);
        assert_eq!(avg.push(200), 150);
    }

    #[test]
    fn moving_average_negative_values() {
        let mut avg = MovingAverage::new(2).unwrap();
        avg.push(-100);
        assert_eq!(avg.push(-300), -200);
    }

    #[test]
    fn moving_average_reset_and_len() {
        let mut avg = MovingAverage::new(3).unwrap();
        avg.push(99);
        avg.reset();
        assert_eq!(avg.push(3), 3);
        assert_eq!(avg.len(), 3);
        assert!(!avg.is_empty());
    }

    #[test]
    fn zero_length_rejected() {
        assert!(MovingAverage::new(0).is_err());
    }
}
