//! Despiking and smoothing helpers.
//!
//! Bubble detachment produces isolated spikes in the conditioned signal
//! (paper §4); a short median kills them without the phase lag of a low-pass.

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
}
