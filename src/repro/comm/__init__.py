"""In-process communication substrate: lossy channels with byte accounting."""

from .channel import DropLog, Message, Network

__all__ = ["Message", "DropLog", "Network"]
