"""Memory-subsystem energy accounting (Table III, Fig. 13)."""

from repro.energy.model import EnergyModel, energy_breakdown

__all__ = ["EnergyModel", "energy_breakdown"]
