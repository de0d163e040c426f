package trace

// ChunkBytes is the most bytes one chunk of a recording holds, for the
// bounds the package's external tests put on what a run records.
const ChunkBytes = chunkWords * 4
