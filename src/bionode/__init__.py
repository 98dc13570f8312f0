"""bionode: desk-scale model of a biometric proof-of-existence network.

Subsystems:

* groups / zkp  -- prime-order group ElGamal and verifiable encrypted
  linear computation (Feldman commitments + Chaum-Pedersen equality proof)
* lwe           -- ring-LWE homomorphic encryption with inner-product
  packing for encrypted template matching
* biometrics    -- cosine matching, quantization, encrypted matching,
  modality scoring
* fath          -- proportional supply rebase driven by period fee totals
* fees          -- cost-based computational and perpetual-storage pricing
* vortex        -- DAO roles, tiers, proposal pool, voting, delegation
* slashing      -- perpetration table and the blacklist ladder
* netsim        -- deterministic simulation of ticket-gated block
  production, fee distribution, and rebases
"""

from . import biometrics, fath, fees, groups, lwe, netsim, slashing, vortex, zkp  # noqa: F401

__version__ = "0.1.0"
