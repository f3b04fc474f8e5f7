//! # slicer-chain
//!
//! An in-process blockchain simulator standing in for the Ethereum (Rinkeby)
//! deployment of the paper's prototype.
//!
//! The paper uses the chain for three things, all reproduced here:
//!
//! 1. **Trusted storage** of the accumulator digest `Ac` (freshness),
//! 2. **Trusted execution** of result verification (Algorithm 5) via a
//!    smart contract, and
//! 3. **Fair payment**: search fees are escrowed with the request and
//!    released to the cloud only when verification passes (Section IV-A).
//!
//! Blocks are hash-chained and sealed by a single proof-of-authority
//! sealer; every transaction is metered against an EVM-flavoured
//! [`GasSchedule`] (21 000 intrinsic gas, 16/4 gas per calldata byte,
//! SSTORE/SLOAD costs, EIP-198 MODEXP pricing for the accumulator
//! exponentiations) so that Table II's gas figures can be regenerated with
//! the same cost structure. Contracts are native Rust objects implementing
//! the [`Contract`] trait; their persistent state lives in per-address
//! key/value storage inside the world state, and all storage access is
//! metered through the [`CallContext`].
//!
//! # Examples
//!
//! ```
//! use slicer_chain::{Address, Blockchain, SlicerContract};
//!
//! let mut chain = Blockchain::new();
//! let owner = Address::from_byte(1);
//! chain.create_account(owner, 1_000_000_000);
//! let receipt = chain
//!     .deploy_contract(owner, Box::new(SlicerContract::fixed_512()), 0)
//!     .unwrap();
//! assert!(receipt.gas_used > 700_000); // Table II: deployment ≈ 745k gas
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod chain;
mod contract;
mod error;
mod gas;
mod slicer_contract;
mod tx;
mod types;

pub use block::Block;
pub use chain::{Blockchain, DeployOutcome};
pub use contract::{CallContext, Contract};
pub use error::{ChainError, ContractError};
pub use gas::{
    gas_to_usd, modexp_gas_eip198, modexp_gas_eip2565, GasBreakdown, GasCategory, GasMeter,
    GasSchedule,
};
pub use slicer_contract::{
    SlicerCall, SlicerContract, TokenOnChain, VerifyEntry, SELECTOR_REQUEST, SELECTOR_SET_AC,
    SELECTOR_SUBMIT,
};
pub use tx::{LogEvent, Transaction, TxReceipt, TxStatus};
pub use types::{Address, H256};
