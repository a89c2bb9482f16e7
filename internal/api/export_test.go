package api

// EncodeCursor lets the external tests mint cursors the server never handed
// out (a stale position past the end of a listing that has since shrunk).
var EncodeCursor = encodeCursor
