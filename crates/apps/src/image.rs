//! Synthetic images and quality metrics.
//!
//! The paper's image-processing workloads run on unpublished data; we
//! substitute synthetic images whose pixel distributions exercise the
//! full `[0, 1]` input range of the per-pixel maps (documented in
//! DESIGN.md). All pixels are normalized intensities.

use crate::AppError;
use osc_math::rng::Xoshiro256PlusPlus;

/// A grayscale image with normalized `[0, 1]` pixels, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    width: usize,
    height: usize,
    pixels: Vec<f64>,
}

impl Image {
    /// Creates an image from raw pixels.
    ///
    /// # Errors
    ///
    /// [`AppError::Invalid`] when dimensions don't match the buffer or a
    /// pixel leaves `[0, 1]`.
    pub fn new(width: usize, height: usize, pixels: Vec<f64>) -> Result<Self, AppError> {
        if width == 0 || height == 0 || pixels.len() != width * height {
            return Err(AppError::Invalid(format!(
                "buffer of {} pixels does not match {width}x{height}",
                pixels.len()
            )));
        }
        if pixels.iter().any(|p| !(0.0..=1.0).contains(p)) {
            return Err(AppError::Invalid("pixels must lie in [0, 1]".into()));
        }
        Ok(Image {
            width,
            height,
            pixels,
        })
    }

    /// Creates an image from a closure over `(x, y)`; values are clamped
    /// into `[0, 1]`.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(width: usize, height: usize, mut f: F) -> Image {
        let mut pixels = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                pixels.push(f(x, y).clamp(0.0, 1.0));
            }
        }
        Image {
            width,
            height,
            pixels,
        }
    }

    /// Horizontal linear gradient (0 at the left edge, 1 at the right).
    pub fn gradient(width: usize, height: usize) -> Image {
        Image::from_fn(width, height, |x, _| x as f64 / (width.max(2) - 1) as f64)
    }

    /// Smooth radial blob pattern exercising mid-range intensities.
    pub fn blobs(width: usize, height: usize) -> Image {
        Image::from_fn(width, height, |x, y| {
            let fx = x as f64 / width as f64;
            let fy = y as f64 / height as f64;
            let a = ((fx * 6.0).sin() * (fy * 5.0).cos() + 1.0) / 2.0;
            let b = (-(fx - 0.7).powi(2) * 8.0 - (fy - 0.3).powi(2) * 8.0).exp();
            (0.6 * a + 0.4 * b).clamp(0.0, 1.0)
        })
    }

    /// Uniform random noise image (seeded).
    pub fn noise(width: usize, height: usize, seed: u64) -> Image {
        let mut rng = Xoshiro256PlusPlus::new(seed);
        Image::from_fn(width, height, |_, _| rng.next_f64())
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Raw pixel buffer.
    pub fn pixels(&self) -> &[f64] {
        &self.pixels
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn get(&self, x: usize, y: usize) -> f64 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[y * self.width + x]
    }

    /// Applies a per-pixel map, clamping results into `[0, 1]`.
    pub fn map<F: FnMut(f64) -> f64>(&self, mut f: F) -> Image {
        Image {
            width: self.width,
            height: self.height,
            pixels: self.pixels.iter().map(|&p| f(p).clamp(0.0, 1.0)).collect(),
        }
    }

    /// Mean absolute per-pixel difference.
    ///
    /// # Errors
    ///
    /// [`AppError::Invalid`] on dimension mismatch.
    pub fn mae(&self, other: &Image) -> Result<f64, AppError> {
        self.check_dims(other)?;
        Ok(osc_math::stats::mae(&self.pixels, &other.pixels))
    }

    /// Peak signal-to-noise ratio in dB (`+inf` for identical images).
    ///
    /// # Errors
    ///
    /// [`AppError::Invalid`] on dimension mismatch.
    pub fn psnr_db(&self, other: &Image) -> Result<f64, AppError> {
        self.check_dims(other)?;
        let mse = osc_math::stats::mse(&self.pixels, &other.pixels);
        if mse == 0.0 {
            return Ok(f64::INFINITY);
        }
        Ok(10.0 * (1.0 / mse).log10())
    }

    fn check_dims(&self, other: &Image) -> Result<(), AppError> {
        if self.width != other.width || self.height != other.height {
            return Err(AppError::Invalid(format!(
                "dimension mismatch: {}x{} vs {}x{}",
                self.width, self.height, other.width, other.height
            )));
        }
        Ok(())
    }

    /// Intensity histogram with `bins` buckets.
    pub fn histogram(&self, bins: usize) -> Vec<u64> {
        let mut h = osc_math::stats::Histogram::new(0.0, 1.0 + 1e-12, bins);
        for &p in &self.pixels {
            h.push(p);
        }
        h.counts().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validation() {
        assert!(Image::new(2, 2, vec![0.0, 0.5, 1.0, 0.25]).is_ok());
        assert!(Image::new(2, 2, vec![0.0; 3]).is_err());
        assert!(Image::new(0, 2, vec![]).is_err());
        assert!(Image::new(1, 1, vec![1.5]).is_err());
    }

    #[test]
    fn gradient_spans_range() {
        let g = Image::gradient(16, 4);
        assert_eq!(g.get(0, 0), 0.0);
        assert_eq!(g.get(15, 3), 1.0);
        assert!(g.get(8, 0) > 0.4 && g.get(8, 0) < 0.6);
    }

    #[test]
    fn noise_is_seeded() {
        let a = Image::noise(8, 8, 42);
        let b = Image::noise(8, 8, 42);
        assert_eq!(a, b);
        let c = Image::noise(8, 8, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn map_clamps() {
        let g = Image::gradient(4, 1);
        let doubled = g.map(|p| p * 2.0);
        assert!(doubled.pixels().iter().all(|&p| p <= 1.0));
    }

    #[test]
    fn psnr_identical_is_infinite() {
        let g = Image::blobs(8, 8);
        assert_eq!(g.psnr_db(&g).unwrap(), f64::INFINITY);
    }

    #[test]
    fn psnr_of_known_error() {
        let a = Image::new(1, 2, vec![0.5, 0.5]).unwrap();
        let b = Image::new(1, 2, vec![0.6, 0.4]).unwrap();
        // MSE = 0.01 -> PSNR = 20 dB.
        assert!((a.psnr_db(&b).unwrap() - 20.0).abs() < 1e-9);
        assert!((a.mae(&b).unwrap() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = Image::gradient(4, 4);
        let b = Image::gradient(5, 4);
        assert!(a.mae(&b).is_err());
        assert!(a.psnr_db(&b).is_err());
    }

    #[test]
    fn histogram_counts_pixels() {
        let g = Image::gradient(10, 1);
        let h = g.histogram(2);
        assert_eq!(h.iter().sum::<u64>(), 10);
        assert_eq!(h[0], 5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_bounds_checked() {
        let _ = Image::gradient(2, 2).get(2, 0);
    }
}
