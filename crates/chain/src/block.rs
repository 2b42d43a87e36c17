//! Blocks and the block tree.

/// Identifier of a block within a [`BlockTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub usize);

/// Who produced a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MinerClass {
    /// Produced by the honest miners.
    Honest,
    /// Produced by the adversarial coalition.
    Adversary,
}

#[derive(Debug, Clone)]
struct BlockRecord {
    parent: Option<BlockId>,
    owner: MinerClass,
    height: u64,
}

/// An append-only tree of blocks rooted at a genesis block.
///
/// # Example
///
/// ```
/// use sm_chain::{BlockTree, MinerClass};
///
/// let mut tree = BlockTree::new();
/// let genesis = tree.genesis();
/// let a = tree.add_block(genesis, MinerClass::Honest);
/// let b = tree.add_block(a, MinerClass::Adversary);
/// assert_eq!(tree.height(b), 2);
/// assert!(tree.is_ancestor(genesis, b));
/// ```
#[derive(Debug, Clone)]
pub struct BlockTree {
    blocks: Vec<BlockRecord>,
}

impl Default for BlockTree {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockTree {
    /// Creates a tree containing only the genesis block (honest-owned, height 0).
    pub fn new() -> Self {
        BlockTree {
            blocks: vec![BlockRecord {
                parent: None,
                owner: MinerClass::Honest,
                height: 0,
            }],
        }
    }

    /// The genesis block.
    pub fn genesis(&self) -> BlockId {
        BlockId(0)
    }

    /// Number of blocks in the tree (including genesis).
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the tree only contains the genesis block.
    pub fn is_empty(&self) -> bool {
        self.blocks.len() == 1
    }

    /// Appends a block with the given parent and owner and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `parent` does not exist.
    pub fn add_block(&mut self, parent: BlockId, owner: MinerClass) -> BlockId {
        let parent_height = self.height(parent);
        self.blocks.push(BlockRecord {
            parent: Some(parent),
            owner,
            height: parent_height + 1,
        });
        BlockId(self.blocks.len() - 1)
    }

    /// Height of a block (genesis has height 0).
    ///
    /// # Panics
    ///
    /// Panics if the block does not exist.
    pub fn height(&self, block: BlockId) -> u64 {
        self.blocks[block.0].height
    }

    /// Owner of a block.
    ///
    /// # Panics
    ///
    /// Panics if the block does not exist.
    pub fn owner(&self, block: BlockId) -> MinerClass {
        self.blocks[block.0].owner
    }

    /// Parent of a block (`None` for genesis).
    ///
    /// # Panics
    ///
    /// Panics if the block does not exist.
    pub fn parent(&self, block: BlockId) -> Option<BlockId> {
        self.blocks[block.0].parent
    }

    /// Whether `ancestor` lies on the path from `descendant` to genesis
    /// (a block is an ancestor of itself).
    pub fn is_ancestor(&self, ancestor: BlockId, descendant: BlockId) -> bool {
        let mut current = Some(descendant);
        while let Some(block) = current {
            if block == ancestor {
                return true;
            }
            if self.height(block) < self.height(ancestor) {
                return false;
            }
            current = self.parent(block);
        }
        false
    }

    /// The chain from genesis to `tip`, in genesis-first order.
    pub fn chain_to(&self, tip: BlockId) -> Vec<BlockId> {
        let mut chain = Vec::with_capacity(self.height(tip) as usize + 1);
        let mut current = Some(tip);
        while let Some(block) = current {
            chain.push(block);
            current = self.parent(block);
        }
        chain.reverse();
        chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genesis_tree_is_empty() {
        let tree = BlockTree::new();
        assert!(tree.is_empty());
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.height(tree.genesis()), 0);
        assert_eq!(tree.parent(tree.genesis()), None);
    }

    #[test]
    fn heights_and_parents_follow_structure() {
        let mut tree = BlockTree::new();
        let a = tree.add_block(tree.genesis(), MinerClass::Honest);
        let b = tree.add_block(a, MinerClass::Adversary);
        let c = tree.add_block(tree.genesis(), MinerClass::Adversary);
        assert_eq!(tree.height(a), 1);
        assert_eq!(tree.height(b), 2);
        assert_eq!(tree.height(c), 1);
        assert_eq!(tree.parent(b), Some(a));
        assert!(!tree.is_empty());
    }

    #[test]
    fn ancestry_checks() {
        let mut tree = BlockTree::new();
        let a = tree.add_block(tree.genesis(), MinerClass::Honest);
        let b = tree.add_block(a, MinerClass::Honest);
        let fork = tree.add_block(tree.genesis(), MinerClass::Adversary);
        assert!(tree.is_ancestor(a, b));
        assert!(tree.is_ancestor(b, b));
        assert!(tree.is_ancestor(tree.genesis(), fork));
        assert!(!tree.is_ancestor(a, fork));
        assert!(!tree.is_ancestor(b, a));
    }

    #[test]
    fn chain_and_ownership_counts() {
        let mut tree = BlockTree::new();
        let a = tree.add_block(tree.genesis(), MinerClass::Honest);
        let b = tree.add_block(a, MinerClass::Adversary);
        let c = tree.add_block(b, MinerClass::Adversary);
        let chain = tree.chain_to(c);
        assert_eq!(chain, vec![tree.genesis(), a, b, c]);
        let owners: Vec<MinerClass> = chain[1..].iter().map(|&block| tree.owner(block)).collect();
        assert_eq!(
            owners,
            [
                MinerClass::Honest,
                MinerClass::Adversary,
                MinerClass::Adversary
            ]
        );
    }
}
