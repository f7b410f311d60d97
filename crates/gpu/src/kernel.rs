//! Kernel launch shape: the grid of blocks a metered kernel is charged as.

/// Grid/block shape of a launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    pub n_blocks: usize,
    pub block_size: usize,
}

impl LaunchConfig {
    /// Shape covering `n_items` with the given block size.
    pub fn cover(n_items: usize, block_size: usize) -> Self {
        assert!(block_size > 0);
        LaunchConfig {
            n_blocks: n_items.div_ceil(block_size),
            block_size,
        }
    }

    pub fn n_threads(&self) -> usize {
        self.n_blocks * self.block_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cover_rounds_up() {
        let cfg = LaunchConfig::cover(1000, 256);
        assert_eq!(cfg.n_blocks, 4);
        assert_eq!(cfg.n_threads(), 1024);
        let cfg = LaunchConfig::cover(1024, 256);
        assert_eq!(cfg.n_blocks, 4);
        let cfg = LaunchConfig::cover(0, 256);
        assert_eq!(cfg.n_blocks, 0);
    }
}
