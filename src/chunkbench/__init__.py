"""Sentence chunking strategies and a retrieval benchmark harness for RAG."""
